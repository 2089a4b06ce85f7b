package service

import (
	"encoding/json"
	"testing"

	"bisectlb"
	"bisectlb/internal/obs"
)

// computePlanInterface maps bisectlb.Balance's Result for the request
// into a served Plan — the Problem-interface facade, used here to pin
// computePlan's flat mapping against it.
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

// TestFlatFastPathMatchesInterfacePath serialises the plan computePlan
// serves and the one bisectlb.Balance computes for every family ×
// algorithm combination and requires byte equality — including BA-HF's
// parameterised algorithm name, which computePlan must reproduce.
func TestFlatFastPathMatchesInterfacePath(t *testing.T) {
	reg := obs.NewRegistry()
	specs := []ProblemSpec{
		{Family: "uniform", Weight: 1, Lo: 0.15, Hi: 0.5, Seed: 21},
		{Family: "fixed", Weight: 3, SplitAlpha: 0.3},
		{Family: "list", Elems: 4000, SplitAlpha: 0.2, Seed: 5},
		{Family: "fem", Seed: 3},
		{Family: "quadrature", Split: "median", Seed: 2},
		{Family: "searchtree", Seed: 4},
		{Family: "graph", Seed: 5},
		{Family: "spatial", Seed: 6},
	}
	for _, spec := range specs {
		for _, algName := range []string{"HF", "BA", "BA-HF", "PHF"} {
			req := &BalanceRequest{Spec: spec, N: 48, Algorithm: algName, Alpha: 0.15, Kappa: 2}
			req.normalize()
			alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := computePlan(req, alg, "sig", reg)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Family, algName, err)
			}
			slow := computePlanInterface(t, req, alg, "sig")
			fb, _ := json.Marshal(fast)
			sb, _ := json.Marshal(slow)
			if string(fb) != string(sb) {
				t.Fatalf("%s/%s: served plan diverged from Balance\nserved:  %s\nBalance: %s", spec.Family, algName, fb, sb)
			}
		}
	}
}

// TestFlatInputsCoversEveryFamily pins that every served family has a
// flat root and kernel, that an invalid spec reports its constructor
// error, and that every algorithm spelling, parallel-ba included,
// plans on the flat planner.
func TestFlatInputsCoversEveryFamily(t *testing.T) {
	for _, rs := range rosterSpecs {
		req := &BalanceRequest{Spec: rs.spec, N: 8}
		req.normalize()
		if _, k, err := flatInputs(req); err != nil || k == nil {
			t.Fatalf("%s: flatInputs = (%v, %v)", rs.spec.Family, k, err)
		}
	}
	uni := &BalanceRequest{Spec: ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5}, N: 8, Algorithm: "parallel-ba"}
	alg, err := bisectlb.ParseAlgorithm(uni.Algorithm)
	if err != nil || alg != bisectlb.BAAlgorithm {
		t.Fatalf("parallel-ba parses to %v, %v; want BA", alg, err)
	}
	plan, err := computePlan(uni, alg, "sig", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if plan.flat == nil || plan.Algorithm != "BA" {
		t.Fatalf("uniform/parallel-ba planned %q without its flat form (flat=%v)", plan.Algorithm, plan.flat != nil)
	}
	badUni := &BalanceRequest{Spec: ProblemSpec{Family: "uniform", Weight: -1, Lo: 0.1, Hi: 0.5}, N: 8}
	if _, _, err := flatInputs(badUni); err == nil {
		t.Fatal("invalid uniform spec accepted")
	}
}

// TestComputePlanInterfaceFamilies exercises computePlan end to end for
// the families planned through the problem kernel, whose plans must not
// keep a flat form: /v1/rebalance cannot patch them.
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
		if plan.flat != nil {
			t.Fatalf("%s: problem-kernel plan kept a flat form", spec.Family)
		}
	}
}
