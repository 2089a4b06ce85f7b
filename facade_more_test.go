package bisectlb_test

import (
	"testing"

	"bisectlb"
	"bisectlb/internal/verify"
)

// mustProblem builds the standard synthetic test problem.
func mustProblem(t *testing.T) bisectlb.Problem {
	t.Helper()
	p, err := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDirectAlgorithmWrappers checks that the per-algorithm convenience
// functions produce exactly the partition Balance produces for the
// matching Config — they are documented as equivalent entry points.
func TestDirectAlgorithmWrappers(t *testing.T) {
	p := mustProblem(t)
	const n = 32

	ba, err := bisectlb.BA(p, n)
	if err != nil {
		t.Fatal(err)
	}
	viaBalance, err := bisectlb.Balance(p, n, bisectlb.Config{Algorithm: bisectlb.BAAlgorithm})
	if err != nil {
		t.Fatal(err)
	}
	if !bisectlb.SamePartition(ba, viaBalance) {
		t.Fatal("BA() diverges from Balance(BAAlgorithm)")
	}
	if err := verify.CheckPartition(ba, n, 1e-9); err != nil {
		t.Fatal(err)
	}

	bahf, err := bisectlb.BAHF(p, n, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	viaBalance, err = bisectlb.Balance(p, n, bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1, Kappa: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bisectlb.SamePartition(bahf, viaBalance) {
		t.Fatal("BAHF() diverges from Balance(BAHFAlgorithm)")
	}
	if err := verify.CheckGuarantee(bahf, 0.1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestParallelAliases pins the parallel-* spellings as input aliases:
// Balance plans them exactly as BA and PHF (TestParseAlgorithm pins the
// parsing itself).
func TestParallelAliases(t *testing.T) {
	p := mustProblem(t)
	const n = 32
	alias, _ := bisectlb.ParseAlgorithm("parallel-ba")
	viaAlias, err := bisectlb.Balance(p, n, bisectlb.Config{Algorithm: alias})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := bisectlb.BA(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bisectlb.SamePartition(viaAlias, ba) || viaAlias.Algorithm != "BA" {
		t.Fatalf("parallel-ba planned %q, diverging from BA", viaAlias.Algorithm)
	}
	alias, _ = bisectlb.ParseAlgorithm("parallel-phf")
	viaAlias, err = bisectlb.Balance(p, n, bisectlb.Config{Algorithm: alias, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	phf, err := bisectlb.PHF(p, n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !bisectlb.SamePartition(viaAlias, &phf.Result) || viaAlias.Algorithm != "PHF" {
		t.Fatalf("parallel-phf planned %q, diverging from PHF", viaAlias.Algorithm)
	}
}

// TestGuaranteeErrorPaths covers the bound accessors' input validation.
func TestGuaranteeErrorPaths(t *testing.T) {
	if _, err := bisectlb.GuaranteeBA(0.3, 0); err == nil {
		t.Error("GuaranteeBA accepted n=0")
	}
	if _, err := bisectlb.GuaranteeBA(0.7, 4); err == nil {
		t.Error("GuaranteeBA accepted α>1/2")
	}
	if _, err := bisectlb.GuaranteeBAHF(0.3, -1); err == nil {
		t.Error("GuaranteeBAHF accepted κ<0")
	}
	if _, err := bisectlb.GuaranteeBAHF(0, 1); err == nil {
		t.Error("GuaranteeBAHF accepted α=0")
	}
}

// TestNewListFlatMatchesInterface checks the list family's flat
// constructor: its plan is bit-identical to the interface path's result,
// and invalid element counts are rejected.
func TestNewListFlatMatchesInterface(t *testing.T) {
	root, k, err := bisectlb.NewListFlat(100, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(8)
	var plan bisectlb.Plan
	if err := bisectlb.BalanceInto(&plan, pl, k, root, 8, bisectlb.Config{}); err != nil {
		t.Fatal(err)
	}
	p, err := bisectlb.NewListProblem(100, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bisectlb.HF(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckPlanParity(&plan, res); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bisectlb.NewListFlat(0, 0.25, 7); err == nil {
		t.Fatal("NewListFlat accepted an empty list")
	}
}

// TestBalanceIntoPlanReuse re-plans into ONE Plan across very different
// processor counts — growing, shrinking, growing again — and checks each
// result is bit-identical to a plan computed into a fresh Plan. This is
// the documented reuse pattern (the lbserve pool does exactly this), so
// stale state from a larger earlier plan leaking into a smaller later
// one would corrupt production responses.
func TestBalanceIntoPlanReuse(t *testing.T) {
	root, k, err := bisectlb.NewSyntheticFlat(1, 0.1, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(4)
	var reused bisectlb.Plan
	for _, tc := range []struct {
		n   int
		cfg bisectlb.Config
	}{
		{64, bisectlb.Config{}},
		{4, bisectlb.Config{Algorithm: bisectlb.BAAlgorithm}},
		{17, bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1, Kappa: 2}},
		{256, bisectlb.Config{Algorithm: bisectlb.PHFAlgorithm, Alpha: 0.1}},
		{3, bisectlb.Config{}},
	} {
		if err := bisectlb.BalanceInto(&reused, pl, k, root, tc.n, tc.cfg); err != nil {
			t.Fatalf("n=%d %s: %v", tc.n, tc.cfg.Algorithm, err)
		}
		if err := verify.CheckPlan(&reused, tc.n, 1e-9); err != nil {
			t.Fatalf("n=%d %s: reused plan invalid: %v", tc.n, tc.cfg.Algorithm, err)
		}
		var fresh bisectlb.Plan
		if err := bisectlb.BalanceInto(&fresh, bisectlb.NewPlanner(tc.n), k, root, tc.n, tc.cfg); err != nil {
			t.Fatalf("n=%d %s fresh: %v", tc.n, tc.cfg.Algorithm, err)
		}
		if err := verify.CheckPlansEqual(&reused, &fresh); err != nil {
			t.Fatalf("n=%d %s: reused plan diverges from fresh: %v", tc.n, tc.cfg.Algorithm, err)
		}
	}
}

// TestHeteroHFBadSpeeds covers the machine-validation error path.
func TestHeteroHFBadSpeeds(t *testing.T) {
	p := mustProblem(t)
	if _, err := bisectlb.HeteroHF(p, nil); err == nil {
		t.Error("HeteroHF accepted an empty machine")
	}
	if _, err := bisectlb.HeteroHF(p, []float64{1, -2}); err == nil {
		t.Error("HeteroHF accepted a negative speed")
	}
}

// TestProblemGeneratorValidation covers the FE-tree and search-tree
// constructors: zero configs are rejected, valid configs balance cleanly.
func TestProblemGeneratorValidation(t *testing.T) {
	if _, err := bisectlb.NewFEMTreeProblem(bisectlb.FEMTreeConfig{}); err == nil {
		t.Fatal("zero FEMTreeConfig accepted")
	}
	fem, err := bisectlb.NewFEMTreeProblem(bisectlb.FEMTreeConfig{
		MaxDepth: 5, MinDepth: 2, RefineBias: 0.7, Singularity: 0.3, BaseDofs: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bisectlb.HF(fem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckPartition(res, 8, 1e-9); err != nil {
		t.Fatal(err)
	}

	if _, err := bisectlb.NewSearchTreeProblem(bisectlb.SearchTreeConfig{}); err == nil {
		t.Fatal("zero SearchTreeConfig accepted")
	}
	st, err := bisectlb.NewSearchTreeProblem(bisectlb.SearchTreeConfig{
		MaxDepth: 6, MaxBranch: 3, ExpandProb: 0.8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = bisectlb.BA(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckPartition(res, 8, 1e-9); err != nil {
		t.Fatal(err)
	}
}
