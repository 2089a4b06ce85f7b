package searchtree

import (
	"math"
	"testing"

	"bisectlb/internal/bisect"
)

func TestGenerateValidation(t *testing.T) {
	cases := []GenConfig{
		{MaxDepth: 0, MaxBranch: 3, ExpandProb: 0.5},
		{MaxDepth: 5, MaxBranch: 1, ExpandProb: 0.5},
		{MaxDepth: 5, MaxBranch: 3, ExpandProb: 0},
		{MaxDepth: 5, MaxBranch: 3, ExpandProb: 1.5},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(DefaultGenConfig(5))
	b := MustGenerate(DefaultGenConfig(5))
	if a.Size() != b.Size() || a.TotalLeaves() != b.TotalLeaves() {
		t.Fatal("same seed gave different trees")
	}
}

func TestLeafCountsConsistent(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(1))
	parent, _ := parentsAndDepths(tr)
	for i, n := range tr.Nodes {
		if parent[i] == -2 {
			t.Fatalf("node %d unreachable from the root", i)
		}
		if len(tr.Children(i)) == 0 {
			if n.Leaves != 1 {
				t.Fatalf("leaf %d has Leaves=%d", i, n.Leaves)
			}
			continue
		}
		var sum int64
		for _, c := range tr.Children(i) {
			sum += tr.Nodes[c].Leaves
			if parent[c] != i {
				t.Fatalf("node %d: child parent link broken", i)
			}
		}
		if n.Leaves != sum {
			t.Fatalf("node %d: Leaves=%d, children sum %d", i, n.Leaves, sum)
		}
	}
}

func TestFrontierWeightConservation(t *testing.T) {
	f := NewFrontier(MustGenerate(DefaultGenConfig(2)))
	var walk func(q bisect.Problem, depth int)
	walk = func(q bisect.Problem, depth int) {
		if depth == 0 || !q.CanBisect() {
			return
		}
		c1, c2 := q.Bisect()
		if math.Abs(c1.Weight()+c2.Weight()-q.Weight()) > 1e-12 {
			t.Fatalf("%v + %v != %v", c1.Weight(), c2.Weight(), q.Weight())
		}
		if c1.Weight() < c2.Weight() {
			t.Fatal("heavy frontier must come first")
		}
		walk(c1, depth-1)
		walk(c2, depth-1)
	}
	walk(f, 8)
}

func TestFrontierBisectDeterministic(t *testing.T) {
	f := NewFrontier(MustGenerate(DefaultGenConfig(3)))
	a1, a2 := f.Bisect()
	b1, b2 := f.Bisect()
	if a1.ID() != b1.ID() || a2.ID() != b2.ID() {
		t.Fatal("repeated bisection changed IDs")
	}
	if a1.ID() == a2.ID() {
		t.Fatal("sibling frontiers share an ID")
	}
}

func TestFrontierNodesDisjoint(t *testing.T) {
	f := NewFrontier(MustGenerate(DefaultGenConfig(4)))
	c1, c2 := f.Bisect()
	n1, n2 := c1.(*Frontier).Nodes(), c2.(*Frontier).Nodes()
	seen := map[int]bool{}
	for _, v := range append(n1, n2...) {
		if seen[v] {
			t.Fatalf("node %d in both frontiers", v)
		}
		seen[v] = true
	}
	if len(n1) == 0 || len(n2) == 0 {
		t.Fatal("empty frontier produced")
	}
}

func TestSingleLeafFrontierIndivisible(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(6))
	// Find a leaf and build its singleton frontier via repeated bisection
	// until an indivisible frontier appears.
	var q bisect.Problem = NewFrontier(tr)
	for q.CanBisect() {
		_, q = q.Bisect() // follow the light side down
	}
	if q.Weight() != 1 {
		t.Fatalf("indivisible frontier has weight %v", q.Weight())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bisect on exhausted frontier did not panic")
			}
		}()
		q.Bisect()
	}()
}

func TestLPTBalance(t *testing.T) {
	// For frontiers with many nodes, LPT should produce splits no worse
	// than the largest single subtree allows: the light side carries at
	// least (w − max_subtree)/2.
	f := NewFrontier(MustGenerate(DefaultGenConfig(7)))
	// Expand a few levels first to get a multi-node frontier.
	var q bisect.Problem = f
	for i := 0; i < 3 && q.CanBisect(); i++ {
		q, _ = q.Bisect()
	}
	fr := q.(*Frontier)
	if !fr.CanBisect() {
		t.Skip("frontier exhausted early")
	}
	c1, c2 := fr.Bisect()
	var maxSub int64
	expanded := fr.Nodes()
	if len(expanded) == 1 {
		expanded = childrenOf(fr.tree, expanded[0])
	}
	for _, v := range expanded {
		if l := fr.tree.Nodes[v].Leaves; l > maxSub {
			maxSub = l
		}
	}
	floor := (fr.Weight() - float64(maxSub)) / 2
	if floor > 0 && c2.Weight() < floor-1e-9 {
		t.Fatalf("LPT light side %v below floor %v", c2.Weight(), floor)
	}
	_ = c1
}

func TestProbeAlpha(t *testing.T) {
	f := NewFrontier(MustGenerate(DefaultGenConfig(8)))
	a := ProbeAlpha(f, 128)
	if a <= 0 || a > 0.5 {
		t.Fatalf("probed α = %v", a)
	}
}

func TestTotalLeavesMatchesRootWeight(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(9))
	f := NewFrontier(tr)
	if f.Weight() != float64(tr.TotalLeaves()) {
		t.Fatalf("root frontier weight %v != total leaves %d", f.Weight(), tr.TotalLeaves())
	}
}

func TestGenerateValidationMaxBranch(t *testing.T) {
	// Node.count and the child slots are int32; a larger branching factor
	// is rejected before anything is allocated.
	cfg := DefaultGenConfig(1)
	cfg.MaxBranch = math.MaxInt32
	cfg.MaxBranch++ // wraps below 2 where int is 32 bits, still invalid
	if _, err := Generate(cfg); err == nil {
		t.Fatalf("MaxBranch %d accepted", cfg.MaxBranch)
	}
}

func TestGenerateAllocations(t *testing.T) {
	// Generation builds in pooled scratch and hands the tree exact-size
	// copies: the tree, its nodes and its child lists. Under -race the
	// pool drops scratch at random and regrowing it costs the appends of
	// a fresh build.
	limit := 3.0
	if raceEnabled {
		limit = 200
	}
	for seed := uint64(0); seed < 4; seed++ {
		cfg := DefaultGenConfig(seed)
		MustGenerate(cfg) // warm the pool
		if a := testing.AllocsPerRun(5, func() { MustGenerate(cfg) }); a > limit {
			t.Fatalf("seed %d: Generate made %v allocations for %d nodes, want ≤ %v", seed, a, MustGenerate(cfg).Size(), limit)
		}
	}
}

func TestFrontierBisectAllocations(t *testing.T) {
	// A bisection allocates one array for the LPT order and both node
	// sets, and one for both children.
	tr := MustGenerate(DefaultGenConfig(1))
	var pool []*Frontier
	for q := []*Frontier{NewFrontier(tr)}; len(q) > 0 && len(pool) < 64; q = q[1:] {
		if f := q[0]; f.CanBisect() {
			pool = append(pool, f)
			a, b := f.Bisect()
			q = append(q, a.(*Frontier), b.(*Frontier))
		}
	}
	for i, f := range pool {
		if a := testing.AllocsPerRun(10, func() { f.Bisect() }); a > 3 {
			t.Fatalf("frontier %d (%d nodes): Bisect made %v allocations, want ≤ 3", i, len(f.nodes), a)
		}
	}
}
