package femtree

import (
	"math"
	"testing"

	"bisectlb/internal/bisect"
)

func TestGenerateValidation(t *testing.T) {
	cases := []GenConfig{
		{MaxDepth: 0, RefineBias: 0.5, BaseDofs: 1},
		{MaxDepth: 4, MinDepth: 5, RefineBias: 0.5, BaseDofs: 1},
		{MaxDepth: 4, RefineBias: 0, BaseDofs: 1},
		{MaxDepth: 4, RefineBias: 1.5, BaseDofs: 1},
		{MaxDepth: 4, RefineBias: 0.5, BaseDofs: 0},
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
	if a.Size() != b.Size() || a.TotalDofs() != b.TotalDofs() {
		t.Fatal("same seed gave different trees")
	}
	c := MustGenerate(DefaultGenConfig(6))
	if a.Size() == c.Size() && a.TotalDofs() == c.TotalDofs() {
		t.Fatal("different seeds gave identical trees (suspicious)")
	}
}

func TestGenerateStructure(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(1))
	if tr.Size() < 2 {
		t.Fatal("tree degenerated to a single node")
	}
	for i, n := range tr.Nodes {
		if (n.Left >= 0) != (n.Right >= 0) {
			t.Fatalf("node %d has exactly one child (not binary)", i)
		}
		if n.Left >= 0 {
			if tr.Nodes[n.Left].Parent != i || tr.Nodes[n.Right].Parent != i {
				t.Fatalf("node %d: child parent links broken", i)
			}
			if tr.Nodes[n.Left].Depth != n.Depth+1 {
				t.Fatalf("node %d: child depth wrong", i)
			}
		}
		if !(n.Dofs > 0) {
			t.Fatalf("node %d has non-positive dofs", i)
		}
	}
	if tr.MaxDepth() < DefaultGenConfig(1).MinDepth {
		t.Fatal("MinDepth not honoured")
	}
}

func TestSubtreeDofsConsistent(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(2))
	var sum float64
	for _, n := range tr.Nodes {
		sum += n.Dofs
	}
	if math.Abs(sum-tr.TotalDofs()) > 1e-9*sum {
		t.Fatalf("total dofs %v != node sum %v", tr.TotalDofs(), sum)
	}
}

func TestRegionWeightConservation(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(3))
	r := NewRegion(tr)
	var walk func(q bisect.Problem, depth int)
	walk = func(q bisect.Problem, depth int) {
		if depth == 0 || !q.CanBisect() {
			return
		}
		c1, c2 := q.Bisect()
		if math.Abs(c1.Weight()+c2.Weight()-q.Weight()) > 1e-9*q.Weight() {
			t.Fatalf("weights not conserved: %v + %v != %v", c1.Weight(), c2.Weight(), q.Weight())
		}
		if c1.Weight() < c2.Weight() {
			t.Fatal("heavy child must come first")
		}
		walk(c1, depth-1)
		walk(c2, depth-1)
	}
	walk(r, 6)
}

func TestRegionBisectDeterministicContentID(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(4))
	r := NewRegion(tr)
	a1, a2 := r.Bisect()
	b1, b2 := r.Bisect()
	if a1.ID() != b1.ID() || a2.ID() != b2.ID() {
		t.Fatal("repeated bisection changed IDs")
	}
	if a1.Weight() != b1.Weight() {
		t.Fatal("repeated bisection changed weights")
	}
	if a1.ID() == a2.ID() {
		t.Fatal("sibling regions share an ID")
	}
}

func TestRegionSizesPartition(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(7))
	r := NewRegion(tr)
	c1, c2 := r.Bisect()
	s1 := c1.(*Region).Size()
	s2 := c2.(*Region).Size()
	if s1+s2 != r.Size() {
		t.Fatalf("region sizes %d + %d != %d", s1, s2, r.Size())
	}
}

func TestRegionRepeatedCutsStayConnected(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(8))
	pool := []bisect.Problem{NewRegion(tr)}
	for step := 0; step < 40; step++ {
		// Bisect the heaviest divisible region (HF-style).
		best := -1
		for i, q := range pool {
			if q.CanBisect() && (best == -1 || q.Weight() > pool[best].Weight()) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c1, c2 := pool[best].Bisect()
		pool[best] = c1
		pool = append(pool, c2)
	}
	// All regions disjoint and jointly covering the tree.
	seen := make([]bool, tr.Size())
	count := 0
	for _, q := range pool {
		q.(*Region).Nodes(func(v int) {
			if seen[v] {
				t.Fatalf("node %d in two regions", v)
			}
			seen[v] = true
			count++
		})
	}
	if count != tr.Size() {
		t.Fatalf("regions cover %d of %d nodes", count, tr.Size())
	}
}

func TestSingleNodeRegionIndivisible(t *testing.T) {
	tr := MustGenerate(GenConfig{MaxDepth: 1, MinDepth: 1, RefineBias: 1, BaseDofs: 1, Seed: 1})
	r := NewRegion(tr)
	c1, c2 := r.Bisect()
	// Keep cutting until single nodes appear; they must refuse to bisect.
	for _, q := range []bisect.Problem{c1, c2} {
		reg := q.(*Region)
		if reg.Size() == 1 {
			if reg.CanBisect() {
				t.Fatal("single-node region claims divisibility")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Bisect on single-node region did not panic")
					}
				}()
				reg.Bisect()
			}()
		}
	}
}

func TestProbeAlpha(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(9))
	r := NewRegion(tr)
	a := ProbeAlpha(r, 128)
	if a <= 0 || a > 0.5 {
		t.Fatalf("probed α = %v outside (0, 0.5]", a)
	}
	if ProbeAlpha(r, 1) != 0.5 {
		t.Fatal("degenerate probe should return 0.5")
	}
}

func TestGenerateAllocations(t *testing.T) {
	// Generation builds in pooled scratch and hands the tree exact-size
	// copies: the tree, its nodes and its subtree weights. Under -race the
	// pool drops scratch at random and regrowing it costs the appends of
	// a fresh build.
	limit := 3.0
	if raceEnabled {
		limit = 100
	}
	for seed := uint64(0); seed < 4; seed++ {
		cfg := DefaultGenConfig(seed)
		MustGenerate(cfg) // warm the pool
		if a := testing.AllocsPerRun(5, func() { MustGenerate(cfg) }); a > limit {
			t.Fatalf("seed %d: Generate made %v allocations for %d nodes, want ≤ %v", seed, a, MustGenerate(cfg).Size(), limit)
		}
	}
}
