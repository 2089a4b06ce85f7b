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

func TestHFBasicContract(t *testing.T) {
	p := bisect.MustSynthetic(100, 0.1, 0.5, 1)
	for _, n := range []int{1, 2, 3, 7, 32, 100, 1024} {
		res, err := HF(p, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(res.Parts))
		}
		if res.Bisections != n-1 {
			t.Fatalf("n=%d: %d bisections, want %d", n, res.Bisections, n-1)
		}
		if res.Ratio < 1-1e-9 {
			t.Fatalf("n=%d: ratio %v below 1", n, res.Ratio)
		}
		if err := res.CheckPartition(1e-9); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestHFSingleProcessor(t *testing.T) {
	p := bisect.MustSynthetic(5, 0.2, 0.5, 2)
	res, err := HF(p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 || res.Bisections != 0 {
		t.Fatalf("parts=%d bisections=%d", len(res.Parts), res.Bisections)
	}
	if math.Abs(res.Ratio-1) > 1e-12 {
		t.Fatalf("ratio %v, want 1", res.Ratio)
	}
}

func TestHFErrors(t *testing.T) {
	if _, err := HF(nil, 4, Options{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := bisect.MustSynthetic(1, 0.1, 0.5, 1)
	if _, err := HF(p, 0, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := HF(p, -3, Options{}); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestHFGuaranteeFixedSplits(t *testing.T) {
	// Theorem 2 on the adversarial fixed-α class, across the α grid.
	for _, alpha := range []float64{0.05, 0.1, 0.2, 1.0 / 3.0, 0.4, 0.5} {
		r := bounds.RHF(alpha)
		p := bisect.MustFixed(1, alpha)
		for _, n := range []int{2, 3, 5, 16, 100, 511} {
			res, err := HF(p, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The guarantee holds against the general r_α or the trivial
			// N=… small-case value 2(1−α); use the max for tightness.
			limit := math.Max(r, 2*(1-alpha))
			if res.Ratio > limit+1e-9 {
				t.Fatalf("α=%v n=%d: ratio %v exceeds guarantee %v", alpha, n, res.Ratio, limit)
			}
		}
	}
}

func TestHFGuaranteeRandomInstances(t *testing.T) {
	rng := xrand.New(99)
	f := func(seed uint64) bool {
		rng.Reseed(seed)
		lo := rng.InRange(0.02, 0.45)
		hi := rng.InRange(lo, 0.5)
		n := 2 + rng.Intn(2000)
		p := bisect.MustSynthetic(1, lo, hi, seed)
		res, err := HF(p, n, Options{})
		if err != nil {
			return false
		}
		limit := math.Max(bounds.RHF(lo), 2*(1-lo))
		return res.Ratio <= limit+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHFDeterminism(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 77)
	a, err := HF(p, 200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HF(bisect.MustSynthetic(1, 0.1, 0.5, 77), 200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !SamePartition(a, b) {
		t.Fatal("identical inputs produced different partitions")
	}
}

func TestHFTreeRecording(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 5)
	res, err := HF(p, 64, Options{RecordTree: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree
	if tr == nil {
		t.Fatal("tree not recorded")
	}
	if tr.NumLeaves() != 64 {
		t.Fatalf("tree has %d leaves", tr.NumLeaves())
	}
	if tr.NumInternal() != res.Bisections {
		t.Fatalf("tree internal=%d, bisections=%d", tr.NumInternal(), res.Bisections)
	}
	if err := tr.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	if tr.MaxLeafDepth() != res.MaxDepth {
		t.Fatalf("tree depth %d != result depth %d", tr.MaxLeafDepth(), res.MaxDepth)
	}
	if math.Abs(tr.MaxLeafWeight()-res.Max) > 1e-12 {
		t.Fatal("tree max leaf weight differs from result")
	}
}

func TestHFWithoutTreeHasNilTree(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 5)
	res, err := HF(p, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree != nil {
		t.Fatal("tree recorded without request")
	}
}

func TestHFIndivisibleStopsEarly(t *testing.T) {
	// A 5-element list cannot be split into more than 5 parts.
	p := bisect.MustList(5, 0.2, 3)
	res, err := HF(p, 50, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) > 5 {
		t.Fatalf("got %d parts from 5 elements", len(res.Parts))
	}
	for _, pt := range res.Parts {
		if pt.Problem.CanBisect() {
			t.Fatal("HF stopped early while a part was still divisible")
		}
	}
	sum := 0
	for _, pt := range res.Parts {
		n, _ := pt.Problem.(*bisect.List).Flat()
		sum += int(n.S1)
	}
	if sum != 5 {
		t.Fatalf("elements lost: %d", sum)
	}
}

func TestHFHeaviestFirstProperty(t *testing.T) {
	// HF bisects a node only while it is the heaviest subproblem, and
	// weights only shrink, so every internal node of the bisection tree
	// must weigh at least as much as the heaviest final part.
	p := bisect.MustSynthetic(1, 0.1, 0.5, 13)
	res, err := HF(p, 128, Options{RecordTree: true})
	if err != nil {
		t.Fatal(err)
	}
	minInternal := math.Inf(1)
	res.Tree.Walk(func(n *bistree.Node) {
		if !n.IsLeaf() && n.Weight < minInternal {
			minInternal = n.Weight
		}
	})
	if res.Max > minInternal+1e-12 {
		t.Fatalf("max part %v heavier than lightest bisected node %v", res.Max, minInternal)
	}
}
