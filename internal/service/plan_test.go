package service

import (
	"encoding/json"
	"testing"

	"bisectlb"
	"bisectlb/internal/obs"
)

// computePlanInterface is the interface-path half of computePlan, used
// here to pin the flat fast path against it.
func computePlanInterface(t *testing.T, req *BalanceRequest, alg bisectlb.Algorithm, sig string) *Plan {
	t.Helper()
	p, err := req.buildProblem()
	if err != nil {
		t.Fatalf("buildProblem: %v", err)
	}
	res, err := bisectlb.Balance(p, req.N, bisectlb.Config{Algorithm: alg, Alpha: req.Alpha, Kappa: req.Kappa})
	if err != nil {
		t.Fatalf("Balance: %v", err)
	}
	plan := &Plan{
		Algorithm:  res.Algorithm,
		N:          res.N,
		Parts:      make([]PartPlan, len(res.Parts)),
		Total:      res.Total,
		Max:        res.Max,
		Ratio:      res.Ratio,
		Guarantee:  guaranteeFor(alg, req.Alpha, req.Kappa, req.N),
		Bisections: res.Bisections,
		MaxDepth:   res.MaxDepth,
		Signature:  sig,
	}
	for i, pt := range res.Parts {
		plan.Parts[i] = PartPlan{ID: pt.Problem.ID(), Weight: pt.Problem.Weight(), Procs: pt.Procs, Depth: pt.Depth}
	}
	return plan
}

// TestFlatFastPathMatchesInterfacePath serialises the plan from the flat
// fast path and from the Problem-interface path for every flat family ×
// algorithm combination and requires byte equality — including BA-HF's
// parameterised algorithm name, which the fast path must reproduce.
func TestFlatFastPathMatchesInterfacePath(t *testing.T) {
	reg := obs.NewRegistry()
	specs := []ProblemSpec{
		{Family: "uniform", Weight: 1, Lo: 0.15, Hi: 0.5, Seed: 21},
		{Family: "fixed", Weight: 3, SplitAlpha: 0.3},
		{Family: "list", Elems: 4000, SplitAlpha: 0.2, Seed: 5},
	}
	for _, spec := range specs {
		for _, algName := range []string{"HF", "BA", "BA-HF", "PHF"} {
			req := &BalanceRequest{Spec: spec, N: 48, Algorithm: algName, Alpha: 0.15, Kappa: 2}
			req.normalize()
			alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			root, k, ok := flatInputs(req)
			if !ok {
				t.Fatalf("%s/%s: expected a flat fast path", spec.Family, algName)
			}
			fast, err := computePlanFlat(req, alg, "sig", reg, root, k)
			if err != nil {
				t.Fatalf("%s/%s flat: %v", spec.Family, algName, err)
			}
			slow := computePlanInterface(t, req, alg, "sig")
			fb, _ := json.Marshal(fast)
			sb, _ := json.Marshal(slow)
			if string(fb) != string(sb) {
				t.Fatalf("%s/%s: fast path diverged\nfast: %s\nslow: %s", spec.Family, algName, fb, sb)
			}
		}
	}
}

// TestFlatInputsFallsBack pins which requests take the interface path:
// non-flat families and invalid specs. Every algorithm spelling of a
// flat family, parallel-ba included, takes the flat path.
func TestFlatInputsFallsBack(t *testing.T) {
	quad := &BalanceRequest{Spec: ProblemSpec{Family: "quadrature", Split: "median", Seed: 1}, N: 8, Algorithm: "HF"}
	if _, _, ok := flatInputs(quad); ok {
		t.Fatal("quadrature family must not take the flat path")
	}
	uni := &BalanceRequest{Spec: ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5}, N: 8, Algorithm: "parallel-ba"}
	alg, err := bisectlb.ParseAlgorithm(uni.Algorithm)
	if err != nil || alg != bisectlb.BAAlgorithm {
		t.Fatalf("parallel-ba parses to %v, %v; want BA", alg, err)
	}
	if _, _, ok := flatInputs(uni); !ok {
		t.Fatal("uniform/parallel-ba must take the flat path")
	}
	plan, err := computePlan(uni, alg, "sig", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if plan.flat == nil || plan.Algorithm != "BA" {
		t.Fatalf("uniform/parallel-ba planned %q off the flat path (flat=%v)", plan.Algorithm, plan.flat != nil)
	}
	// An invalid spec falls back so the interface path produces the error.
	badUni := &BalanceRequest{Spec: ProblemSpec{Family: "uniform", Weight: -1, Lo: 0.1, Hi: 0.5}, N: 8}
	if _, _, ok := flatInputs(badUni); ok {
		t.Fatal("invalid uniform spec must fall back to the interface path")
	}
}

// TestComputePlanInterfaceFamilies exercises computePlan's interface
// fallback end to end for the families without a flat substrate.
func TestComputePlanInterfaceFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	for _, spec := range []ProblemSpec{
		{Family: "quadrature", Split: "median", Seed: 2},
		{Family: "fem", Seed: 3},
		{Family: "searchtree", Seed: 4},
		{Family: "graph", Seed: 5},
		{Family: "spatial", Seed: 6},
	} {
		req := &BalanceRequest{Spec: spec, N: 16, Algorithm: "HF"}
		req.normalize()
		plan, err := computePlan(req, bisectlb.HFAlgorithm, "sig", reg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Family, err)
		}
		if len(plan.Parts) == 0 {
			t.Fatalf("%s: empty plan", spec.Family)
		}
	}
}
