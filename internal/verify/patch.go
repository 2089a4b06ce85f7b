package verify

import (
	"math"

	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
	"bisectlb/internal/xrand"
)

// driftFactors folds a delta list into a per-ID factor lookup with the
// same last-wins semantics PatchInto applies.
func driftFactors(deltas []core.WeightDelta) map[uint64]float64 {
	m := make(map[uint64]float64, len(deltas))
	for _, d := range deltas {
		m[d.ID] = d.Factor
	}
	return m
}

func factorOf(m map[uint64]float64, id uint64) float64 {
	if f, ok := m[id]; ok {
		return f
	}
	return 1
}

// CheckPatchEquivalence verifies the structural and splice invariants of
// a patch of prior under deltas (DESIGN.md §15):
//
//   - noop: the prior plan really is still inside the band — no
//     splittable part's drifted per-processor load exceeds Band times
//     the drifted mean;
//   - full replan: the plan satisfies CheckPlan and the Group arrays are
//     singletons mirroring the parts;
//   - patched: parts strictly ascending by ID with positive weights;
//     drifted total conserved (recomputed from prior × factors); group
//     accounting exact (ΣGroupProcs equals the prior's processor sum,
//     untouched groups are singletons keeping their part's processor
//     count, repair groups own one processor each); every part whose ID
//     survives from the prior plan keeps its processor count and carries
//     exactly its drifted prior weight; and Max/Ratio/MaxDepth are
//     consistent with the group loads.
//
// It is the patch-path analogue of CheckPlan: structural validity, not
// quality — CheckPatchRatio bounds the quality.
func CheckPatchEquivalence(pp *core.PatchedPlan, prior *core.Plan, deltas []core.WeightDelta, tol float64) error {
	if pp == nil || prior == nil {
		return violationf("patch", "nil patched or prior plan")
	}
	st := pp.Stats
	factors := driftFactors(deltas)

	// Drifted totals recomputed independently of the code under test.
	totalD := 0.0
	for _, pt := range prior.Parts {
		totalD += factorOf(factors, pt.Node.ID) * pt.Node.Weight
	}
	if d := math.Abs(totalD - st.DriftedTotal); d > tol*totalD {
		return violationf("patch", "stats drifted total %v, recomputed %v", st.DriftedTotal, totalD)
	}

	switch st.Outcome {
	case core.PatchNoop:
		// Validity of the noop claim is a quality statement; see
		// CheckPatchRatio. Structurally there is nothing to check — the
		// prior plan is served unchanged.
		return nil
	case core.PatchFullReplan:
		if err := CheckPlan(&pp.Plan, prior.N, tol); err != nil {
			return err
		}
		if len(pp.Group) != len(pp.Plan.Parts) || len(pp.GroupProcs) != len(pp.Plan.Parts) {
			return violationf("patch", "full replan group arrays sized %d/%d for %d parts",
				len(pp.Group), len(pp.GroupProcs), len(pp.Plan.Parts))
		}
		for i, pt := range pp.Plan.Parts {
			if pp.Group[i] != int32(i) || pp.GroupProcs[i] != pt.Procs {
				return violationf("patch", "full replan group %d not a singleton of part %d", pp.Group[i], i)
			}
		}
		return nil
	case core.PatchPatched:
		// Fall through to the structural checks below.
	default:
		return violationf("patch", "unknown outcome %v", st.Outcome)
	}

	p := &pp.Plan
	if len(pp.Group) != len(p.Parts) {
		return violationf("patch", "Group has %d entries for %d parts", len(pp.Group), len(p.Parts))
	}
	if want := st.Untouched + st.Pool; len(pp.GroupProcs) != want {
		return violationf("patch", "GroupProcs has %d groups, stats say %d untouched + %d pool",
			len(pp.GroupProcs), st.Untouched, st.Pool)
	}
	if math.Abs(p.Total-totalD) > tol*totalD {
		return violationf("patch", "plan total %v, drifted total %v", p.Total, totalD)
	}

	sum := 0.0
	members := make([]int, len(pp.GroupProcs))
	loads := make([]float64, len(pp.GroupProcs))
	maxD := int32(0)
	for i, pt := range p.Parts {
		if i > 0 && p.Parts[i-1].Node.ID >= pt.Node.ID {
			return violationf("patch", "part IDs not strictly ascending at index %d (%d ≥ %d)",
				i, p.Parts[i-1].Node.ID, pt.Node.ID)
		}
		if !(pt.Node.Weight > 0) {
			return violationf("patch", "part %d has non-positive weight %g", pt.Node.ID, pt.Node.Weight)
		}
		g := pp.Group[i]
		if g < 0 || int(g) >= len(pp.GroupProcs) {
			return violationf("patch", "part %d assigned to group %d of %d", pt.Node.ID, g, len(pp.GroupProcs))
		}
		members[g]++
		loads[g] += pt.Node.Weight
		sum += pt.Node.Weight
		if pt.Node.Depth > maxD {
			maxD = pt.Node.Depth
		}
	}
	if d := math.Abs(sum - p.Total); d > tol*p.Total {
		return violationf("patch", "part weights sum to %v, want %v", sum, p.Total)
	}

	// Processor accounting: nothing gained, nothing lost.
	gp, pr := 0, 0
	for g, n := range pp.GroupProcs {
		if n < 1 {
			return violationf("patch", "group %d owns %d processors", g, n)
		}
		if g >= st.Untouched && n != 1 {
			return violationf("patch", "repair group %d owns %d processors, want 1", g, n)
		}
		if g < st.Untouched && members[g] != 1 {
			return violationf("patch", "untouched group %d has %d members, want 1", g, members[g])
		}
		gp += int(n)
	}
	for _, pt := range prior.Parts {
		pr += int(pt.Procs)
	}
	if gp != pr {
		return violationf("patch", "group processors sum to %d, prior plan owned %d", gp, pr)
	}

	// Splice invariant: a surviving ID keeps its processor count and
	// carries exactly its drifted prior weight (untouched parts as
	// singleton groups, donors inside repair bins).
	priorIdx := 0
	for i, pt := range p.Parts {
		for priorIdx < len(prior.Parts) && prior.Parts[priorIdx].Node.ID < pt.Node.ID {
			priorIdx++
		}
		if priorIdx >= len(prior.Parts) || prior.Parts[priorIdx].Node.ID != pt.Node.ID {
			continue // repair fragment with a fresh ID
		}
		pold := prior.Parts[priorIdx]
		want := factorOf(factors, pt.Node.ID) * pold.Node.Weight
		if math.Abs(pt.Node.Weight-want) > tol*math.Max(1, want) {
			return violationf("patch", "surviving part %d weighs %v, want drifted prior weight %v",
				pt.Node.ID, pt.Node.Weight, want)
		}
		g := pp.Group[i]
		if int(g) < st.Untouched {
			if pp.GroupProcs[g] != pold.Procs {
				return violationf("patch", "untouched part %d owns %d processors, prior had %d",
					pt.Node.ID, pp.GroupProcs[g], pold.Procs)
			}
		} else if pold.Procs != 1 {
			return violationf("patch", "multi-processor part %d was pooled (procs %d)", pt.Node.ID, pold.Procs)
		}
	}

	// Summary consistency over group loads.
	maxL := 0.0
	for _, l := range loads {
		if l > maxL {
			maxL = l
		}
	}
	if math.Abs(maxL-p.Max) > tol*math.Max(1, p.Total) {
		return violationf("patch", "recorded max group load %v, recomputed %v", p.Max, maxL)
	}
	if int(maxD) != p.MaxDepth {
		return violationf("patch", "recorded max depth %d, recomputed %d", p.MaxDepth, maxD)
	}
	if want := bisectRatio(p.Max, p.Total, p.N); math.Abs(p.Ratio-want) > tol*math.Max(1, want) {
		return violationf("patch", "ratio %v inconsistent with max/total/N (want %v)", p.Ratio, want)
	}
	return nil
}

// CheckPatchRatio verifies the quality of a patch of prior under deltas
// against the proven bounds (DESIGN.md §15):
//
//   - the stats report the band B = max(guarantee bound, 2) that the
//     prior's algorithm, α, κ and N determine, recomputed here;
//   - noop: no splittable part's drifted per-processor load exceeds
//     B times the drifted mean — the claim that made it a noop;
//   - full replan: the fresh plan satisfies the paper's guarantee for
//     its algorithm (CheckPlanGuarantee at α, κ);
//   - patched: every untouched group's load is at most B times its
//     processors' share of the drifted mean (indivisible leaves exempt —
//     a fresh plan contains the identical leaf); every repair bin obeys
//     the greedy packing bound mean-pool-load + heaviest-pool-item; and
//     when no oversize item or leaf survives, the headline bound holds:
//     patched ratio ≤ B.
func CheckPatchRatio(pp *core.PatchedPlan, prior *core.Plan, deltas []core.WeightDelta, alpha, kappa, tol float64) error {
	if pp == nil || prior == nil {
		return violationf("patch-ratio", "nil patched or prior plan")
	}
	st := pp.Stats
	// The band is a pure function of the prior's algorithm, α, κ and N,
	// so it is recomputed rather than read from the stats under test.
	band, err := bounds.Guarantee(prior.Algorithm, alpha, kappa, prior.N)
	if err != nil {
		return Violation{Check: "patch-ratio", Detail: err.Error()}
	}
	band = max(band, 2)
	if st.Band != band {
		return violationf("patch-ratio", "stats band %v, recomputed max(guarantee, 2) = %v", st.Band, band)
	}
	factors := driftFactors(deltas)
	totalD := 0.0
	for _, pt := range prior.Parts {
		totalD += factorOf(factors, pt.Node.ID) * pt.Node.Weight
	}
	meanD := totalD / float64(prior.N)

	switch st.Outcome {
	case core.PatchNoop:
		for _, pt := range prior.Parts {
			if pt.Node.Leaf {
				continue
			}
			load := factorOf(factors, pt.Node.ID) * pt.Node.Weight / float64(pt.Procs)
			if load > band*meanD*(1+1e-6) {
				return violationf("patch-ratio", "noop left part %d at load %v, band allows %v",
					pt.Node.ID, load, band*meanD)
			}
		}
		return nil
	case core.PatchFullReplan:
		return CheckPlanGuarantee(&pp.Plan, alpha, kappa)
	case core.PatchPatched:
		// Fall through.
	default:
		return violationf("patch-ratio", "unknown outcome %v", st.Outcome)
	}

	p := &pp.Plan
	loads := make([]float64, len(pp.GroupProcs))
	leafSingleton := make([]bool, len(pp.GroupProcs))
	maxItem := 0.0
	for i, pt := range p.Parts {
		g := pp.Group[i]
		loads[g] += pt.Node.Weight
		if int(g) < st.Untouched && pt.Node.Leaf {
			leafSingleton[g] = true
		}
		if int(g) >= st.Untouched && pt.Node.Weight > maxItem {
			maxItem = pt.Node.Weight
		}
	}
	poolW := 0.0
	for g := st.Untouched; g < len(loads); g++ {
		poolW += loads[g]
	}
	poolMean := 0.0
	if st.Pool > 0 {
		poolMean = poolW / float64(st.Pool)
	}

	slack := guaranteeSlack + tol
	for g, l := range loads {
		if g < st.Untouched {
			allow := band * meanD * float64(pp.GroupProcs[g])
			if l > allow*(1+slack) && !leafSingleton[g] {
				return violationf("patch-ratio", "untouched group %d load %v exceeds band allowance %v", g, l, allow)
			}
		} else {
			allow := poolMean + maxItem
			if l > allow*(1+slack) {
				return violationf("patch-ratio",
					"repair bin %d load %v exceeds greedy bound pool-mean+max-item = %v+%v", g, l, poolMean, maxItem)
			}
		}
	}
	if st.Oversize == 0 && st.OversizeLeaves == 0 {
		if p.Ratio > band*(1+slack) {
			return violationf("patch-ratio", "patched ratio %v exceeds headline bound %v (no oversize items)",
				p.Ratio, band)
		}
	}
	return nil
}

// DriftFor derives a deterministic drift vector for an instance's prior
// plan: a seeded handful of parts multiplied by factors spanning shrink
// (×0.2) to blow-up (×20). The spread exercises every patch outcome —
// noop, patched and full replan — across a sweep.
func DriftFor(in Instance, prior *core.Plan) []core.WeightDelta {
	rng := xrand.New(xrand.Mix(in.Seed, 0xD21F7))
	k := 1 + rng.Intn(4)
	if k > len(prior.Parts) {
		k = len(prior.Parts)
	}
	deltas := make([]core.WeightDelta, 0, k)
	for i := 0; i < k; i++ {
		pt := prior.Parts[rng.Intn(len(prior.Parts))]
		deltas = append(deltas, core.WeightDelta{ID: pt.Node.ID, Factor: rng.InRange(0.2, 20)})
	}
	return deltas
}
