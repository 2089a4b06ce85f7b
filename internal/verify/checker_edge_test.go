package verify

import (
	"math"
	"strings"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// TestInstanceString pins the reproduction-recipe rendering: every field
// a replay needs appears for each family.
func TestInstanceString(t *testing.T) {
	cases := []struct {
		in   Instance
		want []string
	}{
		{Instance{Family: FamilyUniform, Weight: 2, Alpha: 0.1, Hi: 0.4, N: 8, Kappa: 1, Seed: 5},
			[]string{"family=uniform", "w=2", "alpha=0.1", "hi=0.4", "n=8", "seed=5"}},
		{Instance{Family: FamilyFixed, Weight: 1, Alpha: 0.3, N: 4, Kappa: 2},
			[]string{"family=fixed", "alpha=0.3", "kappa=2"}},
		{Instance{Family: FamilyList, Elems: 100, Alpha: 0.2, N: 4, Seed: 9},
			[]string{"family=list", "elems=100", "seed=9"}},
		{Instance{Family: FamilyFEM, N: 4, Seed: 3},
			[]string{"family=fem", "n=4", "seed=3"}},
		{Instance{Family: Family(99)}, []string{"family(99)"}},
	}
	for _, tc := range cases {
		s := tc.in.String()
		for _, w := range tc.want {
			if !strings.Contains(s, w) {
				t.Errorf("%v rendered as %q, missing %q", tc.in.Family, s, w)
			}
		}
	}
}

func TestBisectRatioDegenerateTotal(t *testing.T) {
	if !math.IsNaN(bisectRatio(1, 0, 4)) {
		t.Fatal("zero total did not yield NaN ratio")
	}
}

// TestCheckersRejectNil sweeps every checker's nil guard.
func TestCheckersRejectNil(t *testing.T) {
	if CheckPartition(nil, 1, 0) == nil {
		t.Error("CheckPartition accepted nil")
	}
	if CheckBand(nil, 0.1, 0) == nil {
		t.Error("CheckBand accepted nil tree")
	}
	if CheckGuarantee(nil, 0.1, 1) == nil {
		t.Error("CheckGuarantee accepted nil")
	}
	if CheckPlan(nil, 1, 0) == nil {
		t.Error("CheckPlan accepted nil")
	}
	if CheckPlanGuarantee(nil, 0.1, 1) == nil {
		t.Error("CheckPlanGuarantee accepted nil")
	}
	if CheckResultParity(nil, nil) == nil {
		t.Error("CheckResultParity accepted nil")
	}
	if CheckPlanParity(nil, nil) == nil {
		t.Error("CheckPlanParity accepted nil")
	}
	if CheckPlansEqual(nil, nil) == nil {
		t.Error("CheckPlansEqual accepted nil")
	}
}

// mustPlan computes one flat HF plan for the corruption tables below.
func mustPlan(t *testing.T, n int) *core.Plan {
	t.Helper()
	pl := core.NewPlanner(n)
	var plan core.Plan
	if err := pl.HFInto(&plan, bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}, bisect.SyntheticFlatRoot(1, 42), n); err != nil {
		t.Fatal(err)
	}
	return &plan
}

func TestCheckPlanRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *core.Plan) (n int)
		want    string
	}{
		{"wrong n", func(p *core.Plan) int { return p.N + 1 }, "caller requested"},
		{"no parts", func(p *core.Plan) int { p.Parts = p.Parts[:0]; return p.N }, "no parts"},
		{"too many parts", func(p *core.Plan) int { p.N = len(p.Parts) - 1; return p.N }, "exceed"},
		{"unsorted ids", func(p *core.Plan) int {
			p.Parts[0], p.Parts[1] = p.Parts[1], p.Parts[0]
			return p.N
		}, "ascending"},
		{"negative weight", func(p *core.Plan) int { p.Parts[0].Node.Weight = -1; return p.N }, "non-positive"},
		{"zero procs", func(p *core.Plan) int { p.Parts[0].Procs = 0; return p.N }, "assigned 0 processors"},
		{"bad total", func(p *core.Plan) int { p.Total *= 2; return p.N }, "sum to"},
		{"bad max", func(p *core.Plan) int { p.Max *= 2; return p.N }, "recorded max"},
		{"bad depth", func(p *core.Plan) int { p.MaxDepth += 3; return p.N }, "depth"},
		{"bad ratio", func(p *core.Plan) int { p.Ratio += 1; return p.N }, "ratio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustPlan(t, 16)
			n := tc.corrupt(p)
			err := CheckPlan(p, n, 1e-9)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corruption %q: got %v, want substring %q", tc.name, err, tc.want)
			}
		})
	}
}

func TestCheckPlanGuarantee(t *testing.T) {
	p := mustPlan(t, 16)
	if err := CheckPlanGuarantee(p, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	p.Algorithm = "mystery"
	if err := CheckPlanGuarantee(p, 0.1, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	p.Algorithm = "HF"
	p.Ratio = 1e9
	if err := CheckPlanGuarantee(p, 0.1, 1); err == nil {
		t.Fatal("inflated ratio not detected")
	}
}

func TestCheckResultParityFieldDivergence(t *testing.T) {
	mk := func() *core.Result {
		r, err := core.HF(bisect.MustSynthetic(1, 0.1, 0.5, 42), 16, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk()

	b := mk()
	b.Parts[0].Depth++
	if err := CheckResultParity(a, b); err == nil || !strings.Contains(err.Error(), "depths differ") {
		t.Fatalf("depth divergence: %v", err)
	}
}

func TestCheckPlanParityFieldDivergence(t *testing.T) {
	hf, err := core.HF(bisect.MustSynthetic(1, 0.1, 0.5, 42), 16, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(p *core.Plan)
		want    string
	}{
		{"algorithm", func(p *core.Plan) { p.Algorithm = "BA" }, "algorithm"},
		{"n", func(p *core.Plan) { p.N++ }, "N="},
		{"length", func(p *core.Plan) { p.Parts = p.Parts[:len(p.Parts)-1] }, "parts"},
		{"id", func(p *core.Plan) { p.Parts[0].Node.ID++ }, "ID"},
		{"depth", func(p *core.Plan) { p.Parts[0].Node.Depth++ }, "depth"},
		{"procs", func(p *core.Plan) { p.Parts[0].Procs++ }, "procs"},
		{"summary", func(p *core.Plan) { p.Max *= 2 }, "summary"},
		{"bisections", func(p *core.Plan) { p.Bisections++ }, "bisections"},
		{"maxdepth", func(p *core.Plan) { p.MaxDepth++ }, "max depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustPlan(t, 16)
			tc.corrupt(p)
			err := CheckPlanParity(p, hf)
			if err == nil {
				t.Fatalf("divergence %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("divergence %q: got %v, want substring %q", tc.name, err, tc.want)
			}
		})
	}
}

func TestCheckPlansEqualSummaryAndLength(t *testing.T) {
	a, b := mustPlan(t, 16), mustPlan(t, 16)
	b.Ratio *= 2
	if err := CheckPlansEqual(a, b); err == nil || !strings.Contains(err.Error(), "summaries") {
		t.Fatalf("summary divergence: %v", err)
	}
	b = mustPlan(t, 16)
	b.Parts = b.Parts[:len(b.Parts)-1]
	if err := CheckPlansEqual(a, b); err == nil {
		t.Fatal("length divergence not detected")
	}
}

// TestSweepProgressAndOverrides covers the sweep's config plumbing: the
// progress callback fires for every instance, and MaxN/Tol/ShrinkBudget
// overrides are honoured.
func TestSweepProgressAndOverrides(t *testing.T) {
	var calls, last int
	rep := Sweep(SweepConfig{
		Instances: 20, Seed: 3, MaxN: 16, Tol: 1e-10, ShrinkBudget: 1,
		Families: []Family{FamilyUniform},
		Progress: func(done, total int) {
			calls++
			last = done
			if total != 20 {
				t.Fatalf("progress total %d, want 20", total)
			}
		},
	})
	if !rep.OK() {
		t.Fatalf("sweep failed: %+v", rep.Failures)
	}
	if calls != 20 || last != 20 {
		t.Fatalf("progress called %d times (last done %d), want 20/20", calls, last)
	}
	if rep.ByFamily["uniform"] != 20 {
		t.Fatalf("family restriction ignored: %+v", rep.ByFamily)
	}
}

func TestInstanceProblemUnknownFamily(t *testing.T) {
	if _, err := (Instance{Family: Family(42)}).Problem(); err == nil {
		t.Fatal("unknown family materialised")
	}
	if _, _, ok := (Instance{Family: Family(42)}).Flat(); ok {
		t.Fatal("unknown family produced a kernel")
	}
}

func TestViolationError(t *testing.T) {
	err := violationf("band", "child %d too light", 7)
	v, ok := err.(Violation)
	if !ok || v.Check != "band" || !strings.Contains(err.Error(), "verify: band:") {
		t.Fatalf("violation shape wrong: %#v / %v", err, err)
	}
}
