package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"bisectlb"
	"bisectlb/internal/service"
	"bisectlb/internal/verify"
)

// families are the eight problem families lbserve plans.
var families = []string{"uniform", "fixed", "list", "fem", "quadrature", "searchtree", "graph", "spatial"}

// planTol is the relative tolerance of the structural plan checks.
const planTol = 1e-9

// flatInputs maps a request of a flat family onto the flat planning
// facade, as the service does; ok is false for the interface families.
func flatInputs(spec service.ProblemSpec) (root bisectlb.FlatNode, k bisectlb.Kernel, ok bool, err error) {
	switch spec.Family {
	case "uniform":
		root, k, err = bisectlb.NewSyntheticFlat(spec.Weight, spec.Lo, spec.Hi, spec.Seed)
	case "fixed":
		root, k, err = bisectlb.NewFixedFlat(spec.Weight, spec.SplitAlpha)
	case "list":
		root, k, err = bisectlb.NewListFlat(spec.Elems, spec.SplitAlpha, spec.Seed)
	default:
		return root, nil, false, nil
	}
	return root, k, true, err
}

// buildProblem builds an interface-family spec through the public
// facade, as the service does.
func buildProblem(spec service.ProblemSpec) (bisectlb.Problem, error) {
	switch spec.Family {
	case "fem":
		return bisectlb.DefaultFEMTreeProblem(spec.Seed), nil
	case "quadrature":
		split := bisectlb.QuadratureMedianSplit
		if spec.Split == "midpoint" {
			split = bisectlb.QuadratureMidpointSplit
		}
		return bisectlb.NewQuadratureProblem(split, spec.Seed)
	case "searchtree":
		return bisectlb.DefaultSearchTreeProblem(spec.Seed), nil
	case "graph":
		return bisectlb.NewGraphProblem(spec.Seed)
	case "spatial":
		return bisectlb.NewSpatialProblem(spec.Seed)
	}
	return nil, fmt.Errorf("family %q has no interface form here", spec.Family)
}

func configOf(req *service.BalanceRequest) (bisectlb.Config, error) {
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return bisectlb.Config{}, err
	}
	return bisectlb.Config{Algorithm: alg, Alpha: req.Alpha, Kappa: req.Kappa}, nil
}

// kappaOr1 applies BA-HF's default κ.
func kappaOr1(k float64) float64 {
	if k == 0 {
		return 1
	}
	return k
}

// bareAlgorithm strips the κ label the service adds to BA-HF's name.
func bareAlgorithm(name string) string {
	if strings.HasPrefix(name, "BA-HF") {
		return "BA-HF"
	}
	return name
}

// toFlat converts a served plan into the flat form internal/verify
// checks. The substrate state words do not travel over JSON.
func toFlat(p *service.Plan) *bisectlb.Plan {
	fp := &bisectlb.Plan{
		Algorithm: bareAlgorithm(p.Algorithm), N: p.N, Total: p.Total, Max: p.Max,
		Ratio: p.Ratio, Bisections: p.Bisections, MaxDepth: p.MaxDepth,
		Parts: make([]bisectlb.FlatPart, len(p.Parts)),
	}
	for i, pt := range p.Parts {
		fp.Parts[i] = bisectlb.FlatPart{
			Node:  bisectlb.FlatNode{Weight: pt.Weight, ID: pt.ID, Depth: int32(pt.Depth)},
			Procs: int32(pt.Procs),
		}
	}
	return fp
}

// reference plans a balance request in-process through the public
// facade, on the same path the service takes for it.
func reference(req *service.BalanceRequest) (*bisectlb.Plan, error) {
	cfg, err := configOf(req)
	if err != nil {
		return nil, err
	}
	root, k, flat, err := flatInputs(req.Spec)
	if err != nil {
		return nil, err
	}
	if flat {
		var p bisectlb.Plan
		if err := bisectlb.BalanceInto(&p, bisectlb.NewPlanner(0), k, root, req.N, cfg); err != nil {
			return nil, err
		}
		return &p, nil
	}
	prob, err := buildProblem(req.Spec)
	if err != nil {
		return nil, err
	}
	res, err := bisectlb.Balance(prob, req.N, cfg)
	if err != nil {
		return nil, err
	}
	p := &bisectlb.Plan{
		Algorithm: bareAlgorithm(res.Algorithm), N: res.N, Total: res.Total, Max: res.Max,
		Ratio: res.Ratio, Bisections: res.Bisections, MaxDepth: res.MaxDepth,
		Parts: make([]bisectlb.FlatPart, len(res.Parts)),
	}
	for i, pt := range res.Parts {
		p.Parts[i] = bisectlb.FlatPart{
			Node:  bisectlb.FlatNode{Weight: pt.Problem.Weight(), ID: pt.Problem.ID(), Depth: int32(pt.Depth)},
			Procs: int32(pt.Procs),
		}
	}
	return p, nil
}

// samePlan compares two plans bit for bit on everything a served plan
// carries.
func samePlan(got, want *bisectlb.Plan) error {
	if got.Algorithm != want.Algorithm || got.N != want.N || got.Total != want.Total || got.Max != want.Max ||
		got.Ratio != want.Ratio || got.Bisections != want.Bisections || got.MaxDepth != want.MaxDepth {
		return fmt.Errorf("summary %v/%d total=%v max=%v ratio=%v bis=%d depth=%d, reference %v/%d total=%v max=%v ratio=%v bis=%d depth=%d",
			got.Algorithm, got.N, got.Total, got.Max, got.Ratio, got.Bisections, got.MaxDepth,
			want.Algorithm, want.N, want.Total, want.Max, want.Ratio, want.Bisections, want.MaxDepth)
	}
	if len(got.Parts) != len(want.Parts) {
		return fmt.Errorf("%d parts, reference has %d", len(got.Parts), len(want.Parts))
	}
	for i := range got.Parts {
		g, w := got.Parts[i], want.Parts[i]
		if g.Node.ID != w.Node.ID || g.Node.Weight != w.Node.Weight || g.Node.Depth != w.Node.Depth || g.Procs != w.Procs {
			return fmt.Errorf("part %d is %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// checkBalance verifies a served /v1/balance answer: the plan's
// structure, its equality with an in-process reference plan, and, for
// families that declare α, the paper's guarantee. It returns the plan's
// ratio.
func checkBalance(req *service.BalanceRequest, body []byte) (float64, error) {
	var resp service.BalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode plan: %w", err)
	}
	got := toFlat(&resp.Plan)
	if err := verify.CheckPlan(got, req.N, planTol); err != nil {
		return 0, err
	}
	want, err := reference(req)
	if err != nil {
		return 0, fmt.Errorf("reference plan: %w", err)
	}
	if err := samePlan(got, want); err != nil {
		return 0, err
	}
	if req.Alpha > 0 {
		if err := verify.CheckPlanGuarantee(got, req.Alpha, kappaOr1(req.Kappa)); err != nil {
			return 0, err
		}
	}
	return resp.Ratio, nil
}

// checkRebalance verifies a served /v1/rebalance answer against an
// in-process patch of the reference prior plan: same outcome, same parts
// and groups, and the patch-ratio bounds of CheckPatchRatio. It returns
// the served ratio.
func checkRebalance(req *service.RebalanceRequest, body []byte) (float64, error) {
	var resp service.RebalanceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode plan: %w", err)
	}
	if resp.Rebalance == nil {
		return 0, fmt.Errorf("rebalance answer carries no patch certificate")
	}
	base := service.BalanceRequest{Spec: req.Spec, N: req.N, Algorithm: req.Algorithm, Alpha: req.Alpha, Kappa: req.Kappa}
	prior, err := reference(&base)
	if err != nil {
		return 0, fmt.Errorf("reference prior: %w", err)
	}
	root, k, _, err := flatInputs(req.Spec)
	if err != nil {
		return 0, err
	}
	deltas := make([]bisectlb.WeightDelta, len(req.Deltas))
	for i, d := range req.Deltas {
		deltas[i] = bisectlb.WeightDelta{ID: d.ID, Factor: d.Factor}
	}
	kappa := kappaOr1(req.Kappa)
	var pp bisectlb.PatchedPlan
	want, st, err := bisectlb.NewDeltaPlanner(0).PatchInto(&pp, k, root, prior, deltas,
		bisectlb.PatchOptions{Alpha: req.Alpha, Kappa: kappa})
	if err != nil {
		return 0, fmt.Errorf("reference patch: %w", err)
	}
	if resp.Rebalance.Outcome != st.Outcome.String() {
		return 0, fmt.Errorf("outcome %q, reference %q", resp.Rebalance.Outcome, st.Outcome)
	}
	if err := verify.CheckPatchRatio(&pp, prior, deltas, req.Alpha, kappa, planTol); err != nil {
		return 0, err
	}
	if len(resp.Parts) != len(want.Parts) || resp.Ratio != want.Ratio {
		return 0, fmt.Errorf("%d parts ratio %v, reference %d parts ratio %v", len(resp.Parts), resp.Ratio, len(want.Parts), want.Ratio)
	}
	for i, pt := range resp.Parts {
		w := want.Parts[i]
		group := 0
		if st.Outcome == bisectlb.PatchPatched {
			group = int(pp.Group[i])
		}
		if pt.ID != w.Node.ID || pt.Weight != w.Node.Weight || pt.Group != group {
			return 0, fmt.Errorf("part %d is %+v, reference %+v group %d", i, pt, w, group)
		}
	}
	return resp.Ratio, nil
}
