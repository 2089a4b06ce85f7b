package graph

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"bisectlb/internal/bisect"
)

// exhaust recursively bisects p to leaves, asserting on every split:
// exact weight conservation, both children inside the balance band
// (α̂ ≥ AlphaFloor of the parent), heavy child first, distinct IDs.
func exhaust(t *testing.T, p *Problem, ids map[uint64]bool) int {
	t.Helper()
	if ids[p.ID()] {
		t.Fatalf("duplicate problem ID %d", p.ID())
	}
	ids[p.ID()] = true
	if !p.CanBisect() {
		// The LPT bound guarantees an in-band split whenever
		// floor(W/2) + wmax ≤ hiCap; refusing such an instance would
		// break the backend's completeness contract.
		if h := p.graph(); h.NumVertices() >= 2 && h.total/2+h.wmax <= p.hiCap() {
			t.Fatalf("refused to bisect a clearly feasible instance: nv=%d W=%d wmax=%d",
				p.graph().NumVertices(), p.total, p.graph().wmax)
		}
		return 1
	}
	a, b := p.Bisect()
	pa, pb := a.(*Problem), b.(*Problem)
	for _, c := range []*Problem{pa, pb} {
		if c.graph().total != c.total {
			t.Fatalf("child weight %d, its hypergraph's %d", c.total, c.graph().total)
		}
	}
	if pa.total+pb.total != p.total {
		t.Fatalf("weight not conserved: %d + %d != %d", pa.total, pb.total, p.total)
	}
	if a.Weight()+b.Weight() != p.Weight() {
		t.Fatalf("float weights inexact: %v + %v != %v", a.Weight(), b.Weight(), p.Weight())
	}
	if pa.total < pb.total {
		t.Fatal("heavy child must come first")
	}
	floor := p.AlphaFloor()
	if ahat := float64(pb.total) / float64(p.total); ahat < floor {
		t.Fatalf("measured α̂ %v below declared floor %v (W=%d split %d/%d)",
			ahat, floor, p.total, pa.total, pb.total)
	}
	return exhaust(t, pa, ids) + exhaust(t, pb, ids)
}

func mustProblem(t *testing.T, h *Hypergraph, cfg Config) *Problem {
	t.Helper()
	p, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBisectInvariants(t *testing.T) {
	var rec bisect.AlphaRecorder
	builders := []func() (*Hypergraph, error){
		func() (*Hypergraph, error) { return GridGraph(9, 13, 1, 3) },
		func() (*Hypergraph, error) { return GridGraph(16, 16, 5, 11) },
		func() (*Hypergraph, error) { return RingGraph(97, 20, 3, 5) },
		func() (*Hypergraph, error) { return RandomHypergraph(120, 90, 6, 4, 9) },
		func() (*Hypergraph, error) { return FromNets(2, []int64{1, 1}, [][]int32{{0, 1}}, nil) },
	}
	for i, build := range builders {
		h, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := mustProblem(t, h, Config{Seed: uint64(i + 1), Recorder: &rec})
		leaves := exhaust(t, p, map[uint64]bool{})
		if leaves < 2 {
			t.Fatalf("builder %d: tree did not split (leaves=%d)", i, leaves)
		}
	}
	if rec.Count() == 0 {
		t.Fatal("recorder saw no bisections")
	}
	if rec.Min() <= 0 || rec.Min() > 0.5 {
		t.Fatalf("recorded min α̂ = %v outside (0, 0.5]", rec.Min())
	}
	// Class bound: every instance used eps = DefaultEps, so the recorded
	// minimum must respect α = (1−ε)/2 up to the integer-floor slack of
	// the smallest parent weight (≥ 4 here → slack ≤ 1/4... use exact:
	// each parent's floor was checked in exhaust; here check the class
	// floor loosely).
	if rec.Min() < (1-DefaultEps)/2-0.25 {
		t.Fatalf("recorded min α̂ = %v implausibly low", rec.Min())
	}
}

func TestBisectDeterministic(t *testing.T) {
	build := func() *Problem {
		h, err := RandomHypergraph(80, 60, 5, 6, 42)
		if err != nil {
			t.Fatal(err)
		}
		return mustProblem(t, h, Config{Seed: 99})
	}
	var walk func(p *Problem, out *[]uint64)
	walk = func(p *Problem, out *[]uint64) {
		*out = append(*out, p.ID(), uint64(p.total))
		if !p.CanBisect() {
			return
		}
		a, b := p.Bisect()
		walk(a.(*Problem), out)
		walk(b.(*Problem), out)
	}
	var t1, t2 []uint64
	walk(build(), &t1)
	walk(build(), &t2)
	if len(t1) != len(t2) {
		t.Fatalf("tree sizes differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trees diverge at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	// Re-bisecting the same problem object must also reproduce children.
	p := build()
	a1, b1 := p.Bisect()
	a2, b2 := p.Bisect()
	if a1.ID() != a2.ID() || b1.ID() != b2.ID() || a1.Weight() != a2.Weight() || b1.Weight() != b2.Weight() {
		t.Fatal("same-object re-bisection diverged")
	}
}

func TestIndivisibleLeaf(t *testing.T) {
	h, err := FromNets(1, []int64{5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProblem(t, h, Config{})
	if p.CanBisect() {
		t.Fatal("single vertex must not bisect")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bisect on indivisible problem must panic")
		}
	}()
	p.Bisect()
}

func TestHeavyVertexIndivisible(t *testing.T) {
	// One vertex carries almost all weight: no in-band split exists.
	h, err := FromNets(3, []int64{1000, 1, 1}, [][]int32{{0, 1}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProblem(t, h, Config{})
	if p.CanBisect() {
		t.Fatal("dominant-vertex instance must be indivisible")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil hypergraph accepted")
	}
	h, err := FromNets(2, nil, [][]int32{{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(h, Config{Eps: 1.5}); err == nil {
		t.Fatal("eps ≥ 1 accepted")
	}
	if _, err := New(h, Config{Eps: math.NaN()}); err == nil {
		t.Fatal("NaN eps accepted")
	}
	p := mustProblem(t, h, Config{})
	if p.ID() != 1 {
		t.Fatalf("default seed id = %d, want 1", p.ID())
	}
	if got := p.Alpha(); math.Abs(got-(1-DefaultEps)/2) > 1e-15 {
		t.Fatalf("class alpha = %v", got)
	}
}

// TestQuickBisect drives randomized generator parameters through the
// full invariant walk via testing/quick.
func TestQuickBisect(t *testing.T) {
	f := func(seed uint64, nvRaw uint8, spreadRaw uint8) bool {
		nv := 2 + int(nvRaw)%120
		spread := 1 + int64(spreadRaw)%8
		h, err := RingGraph(nv+3, nv/3, spread, seed)
		if err != nil {
			t.Logf("gen: %v", err)
			return false
		}
		p, err := New(h, Config{Seed: seed | 1})
		if err != nil {
			t.Logf("new: %v", err)
			return false
		}
		exhaust(t, p, map[uint64]bool{})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBisectSidesAllocations(t *testing.T) {
	// A bisection allocates only the sides it returns; every level, map
	// and refinement array comes from the pooled scratch. Under -race the
	// pool drops scratch at random and regrowing it costs one allocation
	// per array.
	limit := 2.0
	if raceEnabled {
		limit = 100
	}
	for _, build := range []func() (*Hypergraph, error){
		func() (*Hypergraph, error) { return GridGraph(20, 20, 1, 1) },
		func() (*Hypergraph, error) { return GridGraph(64, 64, 3, 2) },
		func() (*Hypergraph, error) { return RingGraph(300, 90, 4, 3) },
		func() (*Hypergraph, error) { return RandomHypergraph(200, 300, 6, 2, 4) },
	} {
		h, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := mustProblem(t, h, Config{})
		bisectSides(h, p.hiCap(), 1) // warm the pool
		if a := testing.AllocsPerRun(10, func() { bisectSides(h, p.hiCap(), 1) }); a > limit {
			t.Fatalf("%d vertices: bisectSides made %v allocations, want ≤ %v", h.NumVertices(), a, limit)
		}
	}
}

func TestBisectAllocations(t *testing.T) {
	// A split allocates its sides and one block for both child problems
	// and hypergraphs; building the children adds one int64 and one int32
	// block for their arrays.
	limit := 4.0
	if raceEnabled {
		limit = 100
	}
	h, err := GridGraph(30, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProblem(t, h, Config{})
	p.Bisect() // warm the pool
	a := testing.AllocsPerRun(10, func() {
		q := mustProblem(t, h, Config{})
		a, _ := q.Bisect()
		a.(*Problem).graph()
	})
	if a-1 > limit { // one for the root problem itself
		t.Fatalf("Bisect made %v allocations, want ≤ %v", a-1, limit)
	}
}

func TestCapWeightsCoarsen(t *testing.T) {
	// Coarse vertices may outweigh MaxVertexWeight: the cap bounds input
	// weights, not their sums. A ring of cap-weight vertices coarsens and
	// bisects instead of failing inside the bisector.
	const nv = 30
	vw := make([]int64, nv)
	edges := make([]Edge, nv)
	for i := range vw {
		vw[i] = MaxVertexWeight
		edges[i] = Edge{U: int32(i), V: int32((i + 1) % nv)}
	}
	h, err := FromEdges(nv, vw, edges)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProblem(t, h, Config{Eps: 0.5})
	if leaves := exhaust(t, p, map[uint64]bool{}); leaves < 2 {
		t.Fatalf("cap-weight ring did not split (%d leaves)", leaves)
	}
}

func TestSiblingsBuildConcurrently(t *testing.T) {
	// Siblings share the block their hypergraphs are built in; planners
	// may reach both at once from different goroutines.
	h, err := GridGraph(24, 24, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := mustProblem(t, h, Config{Seed: seed}).Bisect()
		var wg sync.WaitGroup
		can := make([]bool, 2)
		for i, c := range []bisect.Problem{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				can[i] = c.CanBisect() && c.Weight() == float64(c.(*Problem).Hypergraph().TotalWeight())
			}()
		}
		wg.Wait()
		if !can[0] || !can[1] {
			t.Fatalf("seed %d: children bisectable/weight-consistent = %v", seed, can)
		}
	}
}
