package verify

import (
	"strings"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// mustHF runs HF with tree recording on the canonical synthetic instance.
func mustHF(t *testing.T, n int) *core.Result {
	t.Helper()
	r, err := core.HF(bisect.MustSynthetic(1, 0.1, 0.5, 42), n, core.Options{RecordTree: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckPartitionAcceptsValidResult(t *testing.T) {
	r := mustHF(t, 64)
	if err := CheckPartition(r, 64, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPartitionRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *core.Result) (n int)
		want    string
	}{
		{"wrong n", func(r *core.Result) int { return 63 }, "requested 63"},
		{"unsorted ids", func(r *core.Result) int {
			r.Parts[0], r.Parts[1] = r.Parts[1], r.Parts[0]
			return r.N
		}, "not strictly ascending"},
		{"bad ratio", func(r *core.Result) int { r.Ratio *= 2; return r.N }, "ratio"},
		{"bad total", func(r *core.Result) int { r.Total *= 2; return r.N }, "sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustHF(t, 64)
			n := tc.corrupt(r)
			err := CheckPartition(r, n, 1e-9)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corruption %q: got %v, want substring %q", tc.name, err, tc.want)
			}
		})
	}
}

func TestCheckBand(t *testing.T) {
	r := mustHF(t, 128)
	// The class has 0.1-bisectors, so the band holds at α = 0.1 …
	if err := CheckBand(r.Tree, 0.1, 1e-9); err != nil {
		t.Fatal(err)
	}
	// … and must be falsified well above the realized worst split.
	if err := CheckBand(r.Tree, 0.49, 0); err == nil {
		t.Fatal("band at α=0.49 not falsified on a U[0.1,0.5] tree")
	} else if !strings.Contains(err.Error(), "outside") {
		t.Fatalf("unexpected band violation text: %v", err)
	}
}

func TestCheckGuaranteeDetectsViolation(t *testing.T) {
	r := mustHF(t, 64)
	if err := CheckGuarantee(r, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	r.Ratio = 1e9
	if err := CheckGuarantee(r, 0.1, 1); err == nil {
		t.Fatal("inflated ratio not detected")
	}
}

func TestCheckPlanAndParity(t *testing.T) {
	root := bisect.SyntheticFlatRoot(1, 42)
	k := bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	pl := core.NewPlanner(64)
	var plan core.Plan
	if err := pl.HFInto(&plan, k, root, 64); err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(&plan, 64, 1e-9); err != nil {
		t.Fatal(err)
	}
	hf := mustHF(t, 64)
	if err := CheckPlanParity(&plan, hf); err != nil {
		t.Fatal(err)
	}

	// Corruptions must be detected.
	plan.Parts[0].Procs = 2
	if err := CheckPlan(&plan, 64, 1e-9); err == nil {
		t.Fatal("HF part with 2 procs not detected")
	}
	plan.Parts[0].Procs = 1
	plan.Parts[3].Node.Weight *= 1.5
	if err := CheckPlanParity(&plan, hf); err == nil {
		t.Fatal("weight divergence not detected")
	}
}

func TestCheckPlanBAProcsSum(t *testing.T) {
	root := bisect.SyntheticFlatRoot(1, 7)
	k := bisect.SyntheticKernel{Lo: 0.2, Hi: 0.4}
	pl := core.NewPlanner(32)
	var plan core.Plan
	if err := pl.BAInto(&plan, k, root, 37); err != nil {
		t.Fatal(err)
	}
	if err := CheckPlan(&plan, 37, 1e-9); err != nil {
		t.Fatal(err)
	}
	plan.Parts[0].Procs++
	if err := CheckPlan(&plan, 37, 1e-9); err == nil {
		t.Fatal("BA procs-sum corruption not detected")
	}
}

func TestCheckResultParityDetectsDivergence(t *testing.T) {
	a := mustHF(t, 64)
	b := mustHF(t, 64)
	if err := CheckResultParity(a, b); err != nil {
		t.Fatal(err)
	}
	b.Parts = b.Parts[:len(b.Parts)-1]
	if err := CheckResultParity(a, b); err == nil {
		t.Fatal("length divergence not detected")
	}
}

func TestCheckPlansEqual(t *testing.T) {
	root := bisect.SyntheticFlatRoot(1, 3)
	k := bisect.SyntheticKernel{Lo: 0.15, Hi: 0.45}
	pl := core.NewPlanner(16)
	var a, b core.Plan
	if err := pl.HFInto(&a, k, root, 16); err != nil {
		t.Fatal(err)
	}
	if err := pl.HFInto(&b, k, root, 16); err != nil {
		t.Fatal(err)
	}
	if err := CheckPlansEqual(&a, &b); err != nil {
		t.Fatal(err)
	}
	b.Parts[2].Node.S0++
	if err := CheckPlansEqual(&a, &b); err == nil {
		t.Fatal("state divergence not detected")
	}
}
