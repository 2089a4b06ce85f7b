package core

import (
	"math"
	"testing"
	"testing/quick"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
	"bisectlb/internal/bounds"
	"bisectlb/internal/xrand"
)

func TestSplitProcsIsOptimal(t *testing.T) {
	// Property: SplitProcs minimises max(w1/n1, w2/n2) over ALL feasible
	// splits, not just the two rounding candidates (Lemma 4's claim is that
	// the optimum lies at the roundings; verify by brute force).
	rng := xrand.New(3)
	f := func(seed uint64) bool {
		rng.Reseed(seed)
		w2 := rng.InRange(0.1, 10)
		w1 := w2 + rng.InRange(0, 10)
		n := 2 + rng.Intn(500)
		n1, n2 := SplitProcs(w1, w2, n)
		if n1+n2 != n || n1 < 1 || n2 < 1 {
			return false
		}
		got := math.Max(w1/float64(n1), w2/float64(n2))
		best := math.Inf(1)
		for k := 1; k < n; k++ {
			c := math.Max(w1/float64(k), w2/float64(n-k))
			if c < best {
				best = c
			}
		}
		return got <= best*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitProcsKnownCases(t *testing.T) {
	// Equal weights, even n: exact halves.
	n1, n2 := SplitProcs(5, 5, 10)
	if n1 != 5 || n2 != 5 {
		t.Fatalf("equal split got %d/%d", n1, n2)
	}
	// Heavy 3:1 with 4 processors: 3 and 1.
	n1, n2 = SplitProcs(3, 1, 4)
	if n1 != 3 || n2 != 1 {
		t.Fatalf("3:1 split got %d/%d", n1, n2)
	}
	// Extreme skew must still leave one processor for the light child.
	n1, n2 = SplitProcs(1000, 1, 4)
	if n2 != 1 {
		t.Fatalf("extreme skew starved light child: %d/%d", n1, n2)
	}
}

func TestSplitProcsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=1":     func() { SplitProcs(2, 1, 1) },
		"w1<w2":   func() { SplitProcs(1, 2, 4) },
		"zero w2": func() { SplitProcs(1, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBABasicContract(t *testing.T) {
	p := bisect.MustSynthetic(100, 0.1, 0.5, 1)
	for _, n := range []int{1, 2, 3, 7, 32, 100, 1024} {
		res, err := BA(p, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(res.Parts))
		}
		if res.Bisections != n-1 {
			t.Fatalf("n=%d: %d bisections, want %d", n, res.Bisections, n-1)
		}
		if err := res.CheckPartition(1e-9); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		procs := 0
		for _, pt := range res.Parts {
			procs += pt.Procs
		}
		if procs != n {
			t.Fatalf("n=%d: processor counts sum to %d", n, procs)
		}
	}
}

func TestBAGuaranteeFixedSplits(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.1, 0.2, 1.0 / 3.0, 0.5} {
		p := bisect.MustFixed(1, alpha)
		for _, n := range []int{2, 3, 5, 16, 100, 511, 4096} {
			res, err := BA(p, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if limit := bounds.BA(alpha, n); res.Ratio > limit+1e-9 {
				t.Fatalf("α=%v n=%d: ratio %v exceeds BA guarantee %v", alpha, n, res.Ratio, limit)
			}
		}
	}
}

func TestBAGuaranteeRandomInstances(t *testing.T) {
	rng := xrand.New(17)
	f := func(seed uint64) bool {
		rng.Reseed(seed)
		lo := rng.InRange(0.02, 0.45)
		hi := rng.InRange(lo, 0.5)
		n := 2 + rng.Intn(3000)
		p := bisect.MustSynthetic(1, lo, hi, seed)
		res, err := BA(p, n, Options{})
		if err != nil {
			return false
		}
		return res.Ratio <= bounds.BA(lo, n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBADepthBound(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.3, 0.5} {
		p := bisect.MustFixed(1, alpha)
		for _, n := range []int{16, 256, 4096} {
			res, err := BA(p, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if limit := bounds.BADepth(alpha, n); res.MaxDepth > limit {
				t.Fatalf("α=%v n=%d: depth %d exceeds bound %d", alpha, n, res.MaxDepth, limit)
			}
		}
	}
}

func TestBATreeRecordsProcs(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 9)
	res, err := BA(p, 16, Options{RecordTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root.Procs != 16 {
		t.Fatalf("root procs = %d", res.Tree.Root.Procs)
	}
	if err := res.Tree.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	// At each internal node the children's processor counts must sum to
	// the parent's (processors are partitioned, never duplicated or lost).
	res.Tree.Walk(func(n *bistree.Node) {
		if n.IsLeaf() {
			return
		}
		if n.Children[0].Procs+n.Children[1].Procs != n.Procs {
			t.Fatalf("node %d: procs %d+%d != %d",
				n.ID, n.Children[0].Procs, n.Children[1].Procs, n.Procs)
		}
	})
}

func TestBAIndivisible(t *testing.T) {
	p := bisect.MustList(4, 0.25, 11)
	res, err := BA(p, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) > 4 {
		t.Fatalf("%d parts from 4 elements", len(res.Parts))
	}
	procs := 0
	for _, pt := range res.Parts {
		procs += pt.Procs
	}
	if procs != 16 {
		t.Fatalf("indivisible run lost processors: %d", procs)
	}
}

func TestBANaiveSplitNeverBetter(t *testing.T) {
	// The ablation: the naive floor-only rule can never beat the
	// best-approximation rule on the same instance.
	rng := xrand.New(23)
	worseSomewhere := false
	for trial := 0; trial < 100; trial++ {
		seed := rng.Uint64()
		n := 2 + rng.Intn(500)
		p1 := bisect.MustSynthetic(1, 0.05, 0.5, seed)
		p2 := bisect.MustSynthetic(1, 0.05, 0.5, seed)
		a, err := BA(p1, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := BANaiveSplit(p2, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Not a per-instance theorem (different splits cascade), so only
		// track the aggregate: naive should lose on average.
		if b.Ratio > a.Ratio+1e-12 {
			worseSomewhere = true
		}
	}
	if !worseSomewhere {
		t.Fatal("naive split never worse in 100 trials — ablation suspicious")
	}
}
