package searchtree

import (
	"math"
	"slices"
	"testing"
)

func TestEstimateLeavesValidation(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(1))
	if _, err := EstimateLeaves(nil, 0, 10, 1); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := EstimateLeaves(tr, -1, 10, 1); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := EstimateLeaves(tr, tr.Size(), 10, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := EstimateLeaves(tr, 0, 0, 1); err == nil {
		t.Fatal("zero probes accepted")
	}
}

func TestEstimateLeavesExactOnLeaf(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(2))
	leaf := -1
	for i := range tr.Nodes {
		if len(tr.Children(i)) == 0 {
			leaf = i
			break
		}
	}
	got, err := EstimateLeaves(tr, leaf, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("leaf estimate %v, want exactly 1", got)
	}
}

func TestEstimateLeavesUnbiased(t *testing.T) {
	// Knuth's estimator is exactly unbiased; with many probes the sample
	// mean must land near the true leaf count. Use a modest tree so the
	// estimator variance stays manageable.
	tr := MustGenerate(GenConfig{MaxDepth: 8, MaxBranch: 3, ExpandProb: 0.8, Seed: 3})
	exact := float64(tr.TotalLeaves())
	got, err := EstimateLeaves(tr, tr.Root, 200000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-exact) / exact; rel > 0.1 {
		t.Fatalf("estimate %v vs exact %v (relative error %v)", got, exact, rel)
	}
}

func TestEstimateLeavesDeterministic(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(4))
	a, err := EstimateLeaves(tr, tr.Root, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateLeaves(tr, tr.Root, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("estimator not deterministic for fixed seed")
	}
}

func TestEstimatedFrontierContract(t *testing.T) {
	tr := MustGenerate(DefaultGenConfig(5))
	f, err := NewEstimatedFrontier(tr, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if f.Weight() <= 0 {
		t.Fatal("non-positive estimated weight")
	}
	if f.Exact() != float64(tr.TotalLeaves()) {
		t.Fatal("exact weight wrong")
	}
	if !f.CanBisect() {
		t.Fatal("root frontier indivisible")
	}
	a, b := f.Bisect()
	if a.Weight() < b.Weight() {
		t.Fatal("heavy-estimate child must come first")
	}
	// The exact weights of the halves still sum to the exact total (the
	// split is on the real frontier; only the estimates are fuzzy).
	ea, eb := a.(*EstimatedFrontier), b.(*EstimatedFrontier)
	if math.Abs(ea.Exact()+eb.Exact()-f.Exact()) > 1e-9 {
		t.Fatal("exact weights not conserved")
	}
}

func TestEstimatedFrontierSplitsLikeExact(t *testing.T) {
	// The estimated frontier partitions on the exact leaf counts: its
	// children hold the exact frontier's children's node sets, in the
	// order of their estimates.
	tr := MustGenerate(DefaultGenConfig(5))
	est, err := NewEstimatedFrontier(tr, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewFrontier(tr)
	for step := 0; step < 200 && est.CanBisect(); step++ {
		e1, e2 := est.Bisect()
		x1, x2 := exact.Bisect()
		ea, eb := e1.(*EstimatedFrontier), e2.(*EstimatedFrontier)
		xa, xb := x1.(*Frontier), x2.(*Frontier)
		if ea.ID() != xa.ID() {
			ea, eb = eb, ea
		}
		if ea.ID() != xa.ID() || eb.ID() != xb.ID() ||
			!slices.Equal(ea.inner.Nodes(), xa.Nodes()) || !slices.Equal(eb.inner.Nodes(), xb.Nodes()) {
			t.Fatalf("step %d: estimated children %v, %v; exact children %v, %v",
				step, ea.inner.Nodes(), eb.inner.Nodes(), xa.Nodes(), xb.Nodes())
		}
		// Follow the exact heavy side, alternating with the light side so
		// both single- and multi-node frontiers are split.
		est, exact = ea, xa
		if step%2 == 1 && eb.CanBisect() {
			est, exact = eb, xb
		}
	}
}

func TestEstimatedFrontierValidation(t *testing.T) {
	if _, err := NewEstimatedFrontier(nil, 10, 1); err == nil {
		t.Fatal("nil tree accepted")
	}
	tr := MustGenerate(DefaultGenConfig(6))
	if _, err := NewEstimatedFrontier(tr, 0, 1); err == nil {
		t.Fatal("zero probes accepted")
	}
}

func TestEstimatedFrontierBalancesReasonably(t *testing.T) {
	// Balance with estimated weights, evaluate on exact weights: the
	// resulting true-load split should not be catastrophically worse than
	// balancing with exact weights. (This mirrors the robustness study.)
	tr := MustGenerate(GenConfig{MaxDepth: 12, MaxBranch: 4, ExpandProb: 0.85, Seed: 7})
	exactRoot := NewFrontier(tr)
	estRoot, err := NewEstimatedFrontier(tr, 500, 13)
	if err != nil {
		t.Fatal(err)
	}
	split := func(p interface {
		Weight() float64
		CanBisect() bool
	}) float64 {
		// one heaviest-first level: fraction of the light half in TRUE weight
		switch q := p.(type) {
		case *Frontier:
			_, b := q.Bisect()
			return b.(*Frontier).Weight() / q.Weight()
		case *EstimatedFrontier:
			_, b := q.Bisect()
			eb := b.(*EstimatedFrontier)
			return eb.Exact() / q.Exact()
		}
		return 0
	}
	exactFrac := split(exactRoot)
	estFrac := split(estRoot)
	// The split was balanced on *estimates*, so in true weights the
	// nominally-light half may even exceed one half; fold to the balance
	// measure min(f, 1−f).
	if estFrac > 0.5 {
		estFrac = 1 - estFrac
	}
	if estFrac <= 0 || estFrac > 0.5+1e-9 {
		t.Fatalf("estimated split true fraction %v out of range", estFrac)
	}
	// Not a tight theorem — just require the estimated split to stay in
	// the same ballpark as the exact one.
	if estFrac < exactFrac/4 {
		t.Fatalf("estimated split (%v) far worse than exact (%v)", estFrac, exactFrac)
	}
}
