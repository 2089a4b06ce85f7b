package verify

import (
	"strings"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// patchFixture computes a prior HF plan and a real patched plan over the
// uniform substrate, guaranteed to land in the PatchPatched outcome.
func patchFixture(t *testing.T) (prior *core.Plan, pp *core.PatchedPlan, deltas []core.WeightDelta, root bisect.FlatNode, k bisect.Kernel) {
	t.Helper()
	root = bisect.SyntheticFlatRoot(1, 99)
	k = bisect.SyntheticKernel{Lo: 0.2, Hi: 0.5}
	pl := core.NewPlanner(128)
	prior = &core.Plan{}
	if err := pl.HFInto(prior, k, root, 128); err != nil {
		t.Fatal(err)
	}
	// Drift the two heaviest parts to 10× the mean — dirty but far from
	// the full-replan weight fraction.
	mean := prior.Total / float64(prior.N)
	best, second := -1, -1
	for i, pt := range prior.Parts {
		if pt.Node.Leaf {
			continue
		}
		if best < 0 || pt.Node.Weight > prior.Parts[best].Node.Weight {
			best, second = i, best
		} else if second < 0 || pt.Node.Weight > prior.Parts[second].Node.Weight {
			second = i
		}
	}
	for _, i := range []int{best, second} {
		pt := prior.Parts[i]
		deltas = append(deltas, core.WeightDelta{ID: pt.Node.ID, Factor: 10 * mean / pt.Node.Weight})
	}
	dp := core.NewDeltaPlanner(128)
	pp = &core.PatchedPlan{}
	_, stats, err := dp.PatchInto(pp, k, root, prior, deltas, core.PatchOptions{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outcome != core.PatchPatched {
		t.Fatalf("fixture outcome %v, want patched", stats.Outcome)
	}
	return prior, pp, deltas, root, k
}

func TestCheckPatchAcceptsRealPatch(t *testing.T) {
	prior, pp, deltas, _, _ := patchFixture(t)
	if err := CheckPatchEquivalence(pp, prior, deltas, 1e-9); err != nil {
		t.Fatalf("equivalence rejected a real patch: %v", err)
	}
	if err := CheckPatchRatio(pp, prior, deltas, 0.2, 1, 1e-9); err != nil {
		t.Fatalf("ratio rejected a real patch: %v", err)
	}
}

func TestCheckPatchEquivalenceCatchesTampering(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(pp *core.PatchedPlan)
		want   string
	}{
		{"lost-weight", func(pp *core.PatchedPlan) {
			pp.Plan.Parts[0].Node.Weight *= 0.5
		}, "patch"},
		{"stolen-processor", func(pp *core.PatchedPlan) {
			pp.GroupProcs[0]++
		}, "patch"},
		{"group-out-of-range", func(pp *core.PatchedPlan) {
			pp.Group[0] = int32(len(pp.GroupProcs))
		}, "patch"},
		{"forged-max", func(pp *core.PatchedPlan) {
			pp.Plan.Max *= 2
		}, "patch"},
		{"repair-group-procs", func(pp *core.PatchedPlan) {
			pp.GroupProcs[len(pp.GroupProcs)-1] = 3
		}, "patch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prior, pp, deltas, _, _ := patchFixture(t)
			tc.mutate(pp)
			err := CheckPatchEquivalence(pp, prior, deltas, 1e-9)
			if err == nil {
				t.Fatal("tampered patch accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unexpected violation: %v", err)
			}
		})
	}
}

func TestCheckPatchRatioCatchesOverload(t *testing.T) {
	prior, pp, deltas, _, _ := patchFixture(t)
	// Cram every pool item into one bin: the packing is what the greedy
	// bound falsifies (weight forgery is CheckPatchEquivalence's domain).
	last := int32(len(pp.GroupProcs) - 1)
	moved := 0
	for i := range pp.Plan.Parts {
		if int(pp.Group[i]) >= pp.Stats.Untouched {
			pp.Group[i] = last
			moved++
		}
	}
	if moved < 3 {
		t.Fatalf("fixture pool too small to falsify packing (%d items)", moved)
	}
	if err := CheckPatchRatio(pp, prior, deltas, 0.2, 1, 1e-9); err == nil {
		t.Fatal("one-bin packing accepted")
	}
}

func TestCheckPatchRatioCatchesFalseNoop(t *testing.T) {
	prior, pp, _, _, _ := patchFixture(t)
	// Claim a noop while a part sits at 50× the mean.
	mean := prior.Total / float64(prior.N)
	var deltas []core.WeightDelta
	for _, pt := range prior.Parts {
		if !pt.Node.Leaf {
			deltas = append(deltas, core.WeightDelta{ID: pt.Node.ID, Factor: 50 * mean / pt.Node.Weight})
			break
		}
	}
	fake := &core.PatchedPlan{Stats: core.PatchStats{Outcome: core.PatchNoop, Band: pp.Stats.Band}}
	fake.Stats.DriftedTotal = 0
	for _, pt := range prior.Parts {
		f := 1.0
		for _, d := range deltas {
			if d.ID == pt.Node.ID {
				f = d.Factor
			}
		}
		fake.Stats.DriftedTotal += f * pt.Node.Weight
	}
	if err := CheckPatchRatio(fake, prior, deltas, 0.2, 1, 1e-9); err == nil || !strings.Contains(err.Error(), "noop left part") {
		t.Fatalf("false noop accepted: %v", err)
	}
}

// TestCheckPatchRatioRecomputesBand pins that the band is recomputed
// from the prior's algorithm, α, κ and N: a patch whose stats report a
// looser band than max(guarantee, 2), or that is checked at another α,
// is rejected.
func TestCheckPatchRatioRecomputesBand(t *testing.T) {
	prior, pp, deltas, _, _ := patchFixture(t)
	pp.Stats.Band *= 2
	if err := CheckPatchRatio(pp, prior, deltas, 0.2, 1, 1e-9); err == nil || !strings.Contains(err.Error(), "stats band") {
		t.Fatalf("loosened band accepted: %v", err)
	}
	pp.Stats.Band /= 2
	if err := CheckPatchRatio(pp, prior, deltas, 0.1, 1, 1e-9); err == nil {
		t.Fatal("band checked at the wrong α accepted")
	}
}
