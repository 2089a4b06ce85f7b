package core

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"bisectlb/internal/bisect"
)

// deltaCase is one substrate × algorithm combination the delta planner
// must patch correctly.
type deltaCase struct {
	name   string
	flat   bisect.FlatNode
	kernel bisect.Kernel
	alg    string
	alpha  float64
	kappa  float64
}

func deltaCases() []deltaCase {
	syn := bisect.SyntheticKernel{Lo: 0.2, Hi: 0.5}
	fix := bisect.FixedKernel{Alpha: 0.3}
	lst := bisect.ListKernel{Alpha: 0.25}
	return []deltaCase{
		{"uniform/HF", bisect.SyntheticFlatRoot(1, 42), syn, "HF", 0.2, 0},
		{"uniform/BA", bisect.SyntheticFlatRoot(1, 42), syn, "BA", 0.2, 0},
		{"uniform/BA-HF", bisect.SyntheticFlatRoot(1, 42), syn, "BA-HF", 0.2, 1.5},
		{"fixed/HF", bisect.FixedFlatRoot(2), fix, "HF", 0.3, 0},
		{"fixed/BA", bisect.FixedFlatRoot(2), fix, "BA", 0.3, 0},
		{"list/HF", bisect.ListFlatRoot(100000, 0.25, 7), lst, "HF", 0.25, 0},
		{"list/BA-HF", bisect.ListFlatRoot(100000, 0.25, 7), lst, "BA-HF", 0.25, 1.5},
	}
}

// planCase computes a fresh prior plan for a delta case.
func planCase(t *testing.T, pl *Planner, c deltaCase, n int) *Plan {
	t.Helper()
	plan := &Plan{}
	var err error
	switch c.alg {
	case "HF":
		err = pl.HFInto(plan, c.kernel, c.flat, n)
	case "BA":
		err = pl.BAInto(plan, c.kernel, c.flat, n)
	case "BA-HF":
		err = pl.BAHFInto(plan, c.kernel, c.flat, n, c.alpha, c.kappa)
	default:
		t.Fatalf("unknown algorithm %q", c.alg)
	}
	if err != nil {
		t.Fatalf("%s plan: %v", c.alg, err)
	}
	return plan
}

// heaviestSplittable returns the heaviest non-leaf part of a plan.
func heaviestSplittable(t *testing.T, p *Plan) FlatPart {
	t.Helper()
	best := -1
	for i, pt := range p.Parts {
		if pt.Node.Leaf {
			continue
		}
		if best < 0 || pt.Node.Weight > p.Parts[best].Node.Weight {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("plan has no splittable part")
	}
	return p.Parts[best]
}

// driftTop drifts the count heaviest splittable parts of prior so each
// lands at loadMult times the prior mean — comfortably above every
// algorithm's band for loadMult = 12 while keeping the dirty weight
// fraction well under the 0.5 full-replan trigger.
func driftTop(t *testing.T, prior *Plan, count int, loadMult float64) ([]WeightDelta, map[uint64]float64) {
	t.Helper()
	mean := prior.Total / float64(prior.N)
	idx := make([]int, 0, len(prior.Parts))
	for i, pt := range prior.Parts {
		if !pt.Node.Leaf {
			idx = append(idx, i)
		}
	}
	for a := 0; a < len(idx); a++ { // selection sort: tiny count, test-only
		best := a
		for b := a + 1; b < len(idx); b++ {
			if prior.Parts[idx[b]].Node.Weight > prior.Parts[idx[best]].Node.Weight {
				best = b
			}
		}
		idx[a], idx[best] = idx[best], idx[a]
	}
	if len(idx) < count {
		t.Fatalf("only %d splittable parts, want %d", len(idx), count)
	}
	deltas := make([]WeightDelta, 0, count)
	factors := map[uint64]float64{}
	for _, i := range idx[:count] {
		pt := prior.Parts[i]
		f := loadMult * mean / pt.Node.Weight
		deltas = append(deltas, WeightDelta{ID: pt.Node.ID, Factor: f})
		factors[pt.Node.ID] = f
	}
	return deltas, factors
}

func plansIdentical(t *testing.T, a, b *Plan, what string) {
	t.Helper()
	if a.Algorithm != b.Algorithm || a.N != b.N || a.Total != b.Total ||
		a.Max != b.Max || a.Ratio != b.Ratio || a.Bisections != b.Bisections || a.MaxDepth != b.MaxDepth {
		t.Fatalf("%s: summaries differ:\n%+v\n%+v", what,
			[7]any{a.Algorithm, a.N, a.Total, a.Max, a.Ratio, a.Bisections, a.MaxDepth},
			[7]any{b.Algorithm, b.N, b.Total, b.Max, b.Ratio, b.Bisections, b.MaxDepth})
	}
	if len(a.Parts) != len(b.Parts) {
		t.Fatalf("%s: %d vs %d parts", what, len(a.Parts), len(b.Parts))
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatalf("%s: part %d differs: %+v vs %+v", what, i, a.Parts[i], b.Parts[i])
		}
	}
}

func TestPatchNoopReturnsPriorObject(t *testing.T) {
	for _, c := range deltaCases() {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(64)
			prior := planCase(t, pl, c, 64)
			dp := NewDeltaPlanner(64)
			opt := PatchOptions{Alpha: c.alpha, Kappa: c.kappa}

			// Zero deltas: nothing drifts, nothing is dirty.
			dst := &PatchedPlan{}
			got, stats, err := dp.PatchInto(dst, c.kernel, c.flat, prior, nil, opt)
			if err != nil {
				t.Fatalf("PatchInto: %v", err)
			}
			if got != prior {
				t.Fatalf("zero-delta patch returned a new plan object, want the prior itself")
			}
			if stats.Outcome != PatchNoop {
				t.Fatalf("outcome %v, want noop", stats.Outcome)
			}

			// Uniform drift scales every load and the mean alike, so the
			// prior plan remains exactly as balanced as before: noop.
			uni := make([]WeightDelta, len(prior.Parts))
			for i, pt := range prior.Parts {
				uni[i] = WeightDelta{ID: pt.Node.ID, Factor: 3.5}
			}
			got, stats, err = dp.PatchInto(dst, c.kernel, c.flat, prior, uni, opt)
			if err != nil {
				t.Fatalf("uniform PatchInto: %v", err)
			}
			if got != prior || stats.Outcome != PatchNoop {
				t.Fatalf("uniform drift: got outcome %v (prior returned: %v), want noop on the prior object",
					stats.Outcome, got == prior)
			}
		})
	}
}

func TestPatchFullDriftDegeneratesToFreshPlan(t *testing.T) {
	for _, c := range deltaCases() {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(64)
			prior := planCase(t, pl, c, 64)

			// Blowing one splittable part up by 10^4 concentrates nearly
			// all drifted weight in the dirty set, crossing the 0.5
			// weight-fraction fallback.
			hv := heaviestSplittable(t, prior)
			deltas := []WeightDelta{{ID: hv.Node.ID, Factor: 1e4}}

			dp := NewDeltaPlanner(64)
			dst := &PatchedPlan{}
			got, stats, err := dp.PatchInto(dst, c.kernel, c.flat, prior, deltas, PatchOptions{Alpha: c.alpha, Kappa: c.kappa})
			if err != nil {
				t.Fatalf("PatchInto: %v", err)
			}
			if stats.Outcome != PatchFullReplan {
				t.Fatalf("outcome %v (dirtyW=%v totalD=%v), want full_replan",
					stats.Outcome, stats.DirtyWeight, stats.DriftedTotal)
			}
			if got != &dst.Plan {
				t.Fatal("full replan must return &dst.Plan")
			}
			fresh := planCase(t, NewPlanner(64), c, 64)
			plansIdentical(t, got, fresh, "full replan vs fresh")
			for i := range dst.Plan.Parts {
				if dst.Group[i] != int32(i) || dst.GroupProcs[i] != dst.Plan.Parts[i].Procs {
					t.Fatalf("full replan groups not singleton at %d: group=%d procs=%d",
						i, dst.Group[i], dst.GroupProcs[i])
				}
			}
		})
	}
}

// checkPatched asserts the splice invariants and the repair bound of a
// patched plan against its prior (the same checks verify.CheckPatch*
// perform; duplicated minimally here because core's in-package tests
// cannot import verify).
func checkPatched(t *testing.T, dst *PatchedPlan, prior *Plan, factors map[uint64]float64) {
	t.Helper()
	p := &dst.Plan
	if len(dst.Group) != len(p.Parts) {
		t.Fatalf("Group len %d vs %d parts", len(dst.Group), len(p.Parts))
	}
	// Parts strictly ascending by ID; total conserved.
	sum := 0.0
	for i, pt := range p.Parts {
		if i > 0 && p.Parts[i-1].Node.ID >= pt.Node.ID {
			t.Fatalf("part IDs not strictly ascending at %d", i)
		}
		sum += pt.Node.Weight
	}
	if math.Abs(sum-p.Total) > 1e-9*p.Total {
		t.Fatalf("parts sum %v, total %v", sum, p.Total)
	}
	// Processor conservation: ΣGroupProcs == Σ prior procs.
	gp, pp := 0, 0
	for _, g := range dst.GroupProcs {
		gp += int(g)
	}
	for _, pt := range prior.Parts {
		pp += int(pt.Procs)
	}
	if gp != pp {
		t.Fatalf("group procs sum %d, prior procs sum %d", gp, pp)
	}
	// Untouched parts: same ID ⇒ same procs, weight = prior × factor.
	priorByID := map[uint64]FlatPart{}
	for _, pt := range prior.Parts {
		priorByID[pt.Node.ID] = pt
	}
	for i, pt := range p.Parts {
		pr, ok := priorByID[pt.Node.ID]
		if !ok {
			continue // repair fragment with a new ID
		}
		f := factors[pt.Node.ID]
		if f == 0 {
			f = 1
		}
		if dst.GroupProcs[dst.Group[i]] == pr.Procs && pt.Node.ID == pr.Node.ID {
			if want := pr.Node.Weight * f; math.Abs(pt.Node.Weight-want) > 1e-12*want {
				t.Fatalf("part %d weight %v, want %v", pt.Node.ID, pt.Node.Weight, want)
			}
		}
	}
	// Ratio measure consistent with group loads.
	loads := dst.GroupLoads(nil)
	maxL := 0.0
	for _, l := range loads {
		if l > maxL {
			maxL = l
		}
	}
	if maxL != p.Max {
		t.Fatalf("max group load %v, plan.Max %v", maxL, p.Max)
	}
	// The headline bound, when every pool item fit under the bin target
	// and no oversize leaf survives.
	if dst.Stats.Oversize == 0 && dst.Stats.OversizeLeaves == 0 {
		bound := dst.Stats.Band * (1 + 1e-6)
		if p.Ratio > bound {
			t.Fatalf("patched ratio %v exceeds band bound %v", p.Ratio, bound)
		}
	}
}

func TestPatchModerateDriftInvariants(t *testing.T) {
	for _, c := range deltaCases() {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(128)
			prior := planCase(t, pl, c, 128)
			// Land three parts at 12× the mean: above every band (the
			// largest default, BA's, is ≈8.7 at α=0.2 N=128) without
			// tripping the full-replan weight fraction.
			deltas, factors := driftTop(t, prior, 3, 12)
			dp := NewDeltaPlanner(128)
			dst := &PatchedPlan{}
			got, stats, err := dp.PatchInto(dst, c.kernel, c.flat, prior, deltas, PatchOptions{Alpha: c.alpha, Kappa: c.kappa})
			if err != nil {
				t.Fatalf("PatchInto: %v", err)
			}
			if stats.Outcome == PatchNoop {
				t.Fatalf("×8 drift on 3 parts was a noop (band %v)", stats.Band)
			}
			if stats.Outcome != PatchPatched {
				t.Skipf("drift crossed into %v on this substrate", stats.Outcome)
			}
			if got != &dst.Plan {
				t.Fatal("patched outcome must return &dst.Plan")
			}
			if stats.Dirty == 0 || stats.Pool == 0 || stats.PoolItems == 0 {
				t.Fatalf("implausible stats: %+v", stats)
			}
			checkPatched(t, dst, prior, factors)
		})
	}
}

// TestPatchParityAcrossConfigs pins that the patched plan is
// bit-identical across the sequential and parallel repair paths.
func TestPatchParityAcrossConfigs(t *testing.T) {
	for _, c := range deltaCases() {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(256)
			prior := planCase(t, pl, c, 256)
			deltas, factors := driftTop(t, prior, 5, 12)
			lowerFanOut(t)
			opt := PatchOptions{Alpha: c.alpha, Kappa: c.kappa}

			type cfg struct {
				name     string
				parallel bool
			}
			cfgs := []cfg{{"seq", false}, {"par", true}}
			var ref *PatchedPlan
			var refStats PatchStats
			for _, cf := range cfgs {
				dp := NewDeltaPlanner(256)
				if cf.parallel {
					dp = NewParallelDeltaPlanner(256, ParallelOptions{Workers: 4})
				}
				dst := &PatchedPlan{}
				_, stats, err := dp.PatchInto(dst, c.kernel, c.flat, prior, deltas, opt)
				if err != nil {
					t.Fatalf("%s: PatchInto: %v", cf.name, err)
				}
				if cf.parallel && stats.Outcome == PatchPatched && !stats.Parallel {
					t.Fatalf("%s: parallel repair did not engage (dirty=%d)", cf.name, stats.Dirty)
				}
				if ref == nil {
					ref, refStats = dst, stats
					if stats.Outcome == PatchPatched {
						checkPatched(t, dst, prior, factors)
					}
					continue
				}
				if stats.Outcome != refStats.Outcome || stats.Splits != refStats.Splits ||
					stats.Dirty != refStats.Dirty || stats.Donors != refStats.Donors ||
					stats.PoolItems != refStats.PoolItems {
					t.Fatalf("%s: stats diverge: %+v vs %+v", cf.name, stats, refStats)
				}
				plansIdentical(t, &dst.Plan, &ref.Plan, cf.name)
				for i := range dst.Group {
					if dst.Group[i] != ref.Group[i] {
						t.Fatalf("%s: group[%d] %d vs %d", cf.name, i, dst.Group[i], ref.Group[i])
					}
				}
				for g := range dst.GroupProcs {
					if dst.GroupProcs[g] != ref.GroupProcs[g] {
						t.Fatalf("%s: groupProcs[%d] %d vs %d", cf.name, g, dst.GroupProcs[g], ref.GroupProcs[g])
					}
				}
			}
		})
	}
}

func TestPatchInputErrors(t *testing.T) {
	c := deltaCases()[0]
	pl := NewPlanner(32)
	prior := planCase(t, pl, c, 32)
	dp := NewDeltaPlanner(32)
	dst := &PatchedPlan{}
	opt := PatchOptions{Alpha: c.alpha}

	if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, prior,
		[]WeightDelta{{ID: 999999999, Factor: 2}}, opt); !errors.Is(err, ErrUnknownPart) {
		t.Fatalf("unknown part: got %v", err)
	}
	for _, f := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, prior,
			[]WeightDelta{{ID: prior.Parts[0].Node.ID, Factor: f}}, opt); !errors.Is(err, ErrBadFactor) {
			t.Fatalf("factor %v: got %v", f, err)
		}
	}
	badRoot := c.flat
	badRoot.Weight *= 2
	if _, _, err := dp.PatchInto(dst, c.kernel, badRoot, prior, nil, opt); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("mismatched root: got %v", err)
	}
	if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, &Plan{Algorithm: "HF", N: 32, Total: c.flat.Weight}, nil, opt); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("empty prior: got %v", err)
	}
	if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, prior, nil, PatchOptions{Alpha: 0.7}); err == nil {
		t.Fatal("bad alpha accepted")
	}
	weird := *prior
	weird.Algorithm = "mystery"
	if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, &weird, nil, opt); err == nil {
		t.Fatal("unknown algorithm accepted for default band")
	}
	if _, _, err := dp.PatchInto(nil, c.kernel, c.flat, prior, nil, opt); err == nil {
		t.Fatal("nil dst accepted")
	}
	if _, _, err := dp.PatchInto(dst, c.kernel, c.flat, nil, nil, opt); err == nil {
		t.Fatal("nil prior accepted")
	}
}

// TestPatchBufferReuse pins that a PatchedPlan buffer refilled after a
// previous patch yields exactly the plan a fresh buffer yields — the
// reuse contract the serving layer's pooling depends on.
func TestPatchBufferReuse(t *testing.T) {
	c := deltaCases()[0]
	pl := NewPlanner(128)
	prior := planCase(t, pl, c, 128)
	var deltas []WeightDelta
	for _, pt := range prior.Parts {
		if !pt.Node.Leaf {
			deltas = append(deltas, WeightDelta{ID: pt.Node.ID, Factor: 9})
			if len(deltas) == 2 {
				break
			}
		}
	}
	dp := NewDeltaPlanner(128)
	opt := PatchOptions{Alpha: c.alpha}

	fresh := &PatchedPlan{}
	if _, _, err := dp.PatchInto(fresh, c.kernel, c.flat, prior, deltas, opt); err != nil {
		t.Fatal(err)
	}
	reused := &PatchedPlan{}
	// Dirty the buffer with a different patch first.
	if _, _, err := dp.PatchInto(reused, c.kernel, c.flat, prior,
		deltas[:1], opt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dp.PatchInto(reused, c.kernel, c.flat, prior, deltas, opt); err != nil {
		t.Fatal(err)
	}
	plansIdentical(t, &reused.Plan, &fresh.Plan, "buffer reuse")
	for i := range fresh.Group {
		if fresh.Group[i] != reused.Group[i] {
			t.Fatalf("group[%d] differs after reuse", i)
		}
	}
}

// TestDeltaPlannerFootprint grows each of the delta planner's buffers
// in turn and checks that Footprint reports exactly the bytes the grown
// capacity holds: element sizes come from the types' real layout, not
// from hand-added field sizes.
func TestDeltaPlannerFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		// The two element sizes the hand-added counts got wrong.
		if got := unsafe.Sizeof(deltaTask{}); got != 56 {
			t.Fatalf("deltaTask is %d B on a 64-bit platform, want 56", got)
		}
		if got := unsafe.Sizeof(FlatPart{}); got != 48 {
			t.Fatalf("FlatPart is %d B on a 64-bit platform, want 48", got)
		}
	}
	dp := NewDeltaPlanner(0)
	if got, want := dp.Footprint(), dp.pl.Footprint(); got != want {
		t.Fatalf("fresh delta planner reports %d B, its planner %d B", got, want)
	}
	const n = 100
	bufs := []struct {
		name string
		grow func()
		elem uintptr
	}{
		{"factors", func() { dp.factors = make([]float64, 0, n) }, 8},
		{"binLoad", func() { dp.binLoad = make([]float64, 0, n) }, 8},
		{"loads", func() { dp.loads = make([]float64, 0, n) }, 8},
		{"dirty", func() { dp.dirty = make([]int32, 0, n) }, 4},
		{"clean", func() { dp.clean = make([]int32, 0, n) }, 4},
		{"order", func() { dp.order = make([]int32, 0, n) }, 4},
		{"itemBin", func() { dp.itemBin = make([]int32, 0, n) }, 4},
		{"binHeap", func() { dp.binHeap = make([]int32, 0, n) }, 4},
		{"inPool", func() { dp.inPool = make([]bool, 0, n) }, 1},
		{"tasks", func() { dp.tasks = make([]deltaTask, 0, n) }, unsafe.Sizeof(deltaTask{})},
		{"frag", func() { dp.frag.Parts = make([]FlatPart, 0, n) }, unsafe.Sizeof(FlatPart{})},
		{"wc", func() { dp.wc = make([]wcount, 0, n) }, unsafe.Sizeof(wcount{})},
	}
	for _, b := range bufs {
		before := dp.Footprint()
		b.grow()
		if got, want := dp.Footprint()-before, n*int(b.elem); got != want {
			t.Errorf("growing %s by %d elements added %d B, want %d", b.name, n, got, want)
		}
	}
}
