package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/obs"
)

// Errors the delta planner reports for malformed patch requests. The
// serving layer maps them to client errors (4xx), so they must wrap
// cleanly through errors.Is.
var (
	// ErrUnknownPart means a WeightDelta names an ID that is not a part
	// of the prior plan.
	ErrUnknownPart = errors.New("core: weight delta names no part of the prior plan")
	// ErrBadFactor means a WeightDelta carries a non-positive or
	// non-finite drift factor.
	ErrBadFactor = errors.New("core: drift factor must be positive and finite")
	// ErrPlanMismatch means the prior plan does not describe the given
	// problem root (different total weight, or an empty plan).
	ErrPlanMismatch = errors.New("core: prior plan does not match the problem root")
)

// WeightDelta reports observed drift on one part of a prior plan: the
// part's true load is Factor times its planned weight. Parts not named
// by any delta are assumed undrifted (factor 1). When one ID appears in
// several deltas the last one wins.
type WeightDelta struct {
	// ID is the part's node ID in the prior plan.
	ID uint64
	// Factor is the multiplicative drift: observed/planned load.
	Factor float64
}

// PatchOutcome classifies what PatchInto did.
type PatchOutcome int32

const (
	// PatchNoop: no part left the α-band; the prior plan is still valid
	// and PatchInto returned the prior *Plan itself, untouched.
	PatchNoop PatchOutcome = iota
	// PatchPatched: the dirty subtrees were re-bisected and spliced back;
	// the returned plan is dst.Plan with the Group arrays authoritative.
	PatchPatched
	// PatchFullReplan: the dirty set carried at least fullReplanFrac of
	// the drifted weight and the plan was recomputed from the root —
	// bit-identical to a fresh plan.
	PatchFullReplan
)

// String names the outcome for logs and JSON.
func (o PatchOutcome) String() string {
	switch o {
	case PatchNoop:
		return "noop"
	case PatchPatched:
		return "patched"
	case PatchFullReplan:
		return "full_replan"
	}
	return fmt.Sprintf("PatchOutcome(%d)", int32(o))
}

// PatchOptions configures a patch. Alpha is required (the α-band and the
// fresh-replan fallback need the class parameter).
type PatchOptions struct {
	// Alpha is the bisector class parameter of the prior plan's problem.
	Alpha float64
	// Kappa is the BA-HF cutoff parameter; read only when the prior
	// plan's algorithm is BA-HF.
	Kappa float64
}

// fullReplanFrac is the dirty drifted-weight fraction at or above which
// PatchInto gives up on patching and replans from scratch. (Weight, not
// count: a part is dirty only when its load exceeds Band ≥ 2 times the
// mean, so dirty parts are always fewer than N/Band — a count fraction
// could never reach ½ — while the weight they carry can approach the
// whole plan.)
const fullReplanFrac = 0.5

// PatchStats describes what a patch did, for metrics and checkers.
type PatchStats struct {
	// Outcome classifies the patch (noop / patched / full replan).
	Outcome PatchOutcome
	// Band is the dirty threshold multiplier that was used: the paper's
	// guarantee for the prior plan's algorithm at Alpha (and Kappa, for
	// BA-HF) on its N processors, floored at 2 so the LPT repair bound
	// max(B, 2−1/P) collapses to B.
	Band float64
	// DriftedTotal is the total weight after applying the deltas.
	DriftedTotal float64
	// Dirty is the number of prior parts whose drifted per-processor
	// load exceeded Band times the drifted mean and were re-bisected.
	Dirty int
	// DirtyWeight is the drifted weight those parts carry; its fraction
	// of DriftedTotal is what the full-replan fallback triggers on.
	DirtyWeight float64
	// Donors is the number of clean parts pulled into the repair pool to
	// bring its mean down to the drifted mean.
	Donors int
	// Untouched is the number of prior parts spliced through unchanged
	// (IDs and processor assignments stable; weights drifted).
	Untouched int
	// Pool is P, the processor count of the repair pool — the number of
	// single-processor groups the pool was packed into.
	Pool int
	// PoolItems is the number of nodes packed (fragments plus donors).
	PoolItems int
	// Splits is the number of bisections the repair performed.
	Splits int
	// Oversize counts pool items that remained above the bin target m
	// (indivisible leaves, or the split cap of 4·N+64 bisections spent).
	// When zero, the patched ratio obeys the documented max(Band, 2−1/P)
	// bound.
	Oversize int
	// OversizeLeaves counts dirty parts that could not be repaired at
	// all because their node is an indivisible leaf; they are spliced
	// through untouched and may exceed the band (a fresh plan has the
	// identical leaf, so no plan does better).
	OversizeLeaves int
	// Parallel reports whether the repair used the parallel fan-out.
	Parallel bool
}

// PatchedPlan is the result buffer of DeltaPlanner.PatchInto. Plan holds
// the spliced parts (sorted by ID, stable with the prior plan's and a
// fresh plan's IDs) with drifted weights; because a repair may place
// several nodes on one processor — something Plan.Parts cannot express —
// the parallel Group arrays are authoritative for processor accounting:
//
//	Group[i]      — the processor group part i belongs to;
//	GroupProcs[g] — the processors group g owns (ΣGroupProcs = prior N).
//
// Untouched parts are singleton groups keeping their prior processor
// counts; repair groups own exactly one processor each. Plan.Max and
// Plan.Ratio are computed over group loads, not part weights, so they
// remain comparable with a fresh plan's quality measure. Plan inside a
// PatchedPlan deliberately does not satisfy verify.CheckPlan's per-part
// processor invariants; use verify.CheckPatchEquivalence instead.
type PatchedPlan struct {
	Plan       Plan
	Group      []int32
	GroupProcs []int32
	// Stats describes the last patch written into this buffer (also set
	// on the noop path, where Plan is left untouched).
	Stats PatchStats
}

// GroupLoads appends the per-group drifted loads to dst[:0] and returns
// it: loads[g] is the summed weight of the parts in group g. Checkers
// and the serving layer use it to recompute the patched quality measure.
func (pp *PatchedPlan) GroupLoads(dst []float64) []float64 {
	dst = dst[:0]
	for range pp.GroupProcs {
		dst = append(dst, 0)
	}
	for i, pt := range pp.Plan.Parts {
		dst[pp.Group[i]] += pt.Node.Weight
	}
	return dst
}

// deltaTask is one dirty subtree handed to the repair: split nd (model
// weights) until every fragment is at most t, then scale fragments by f
// to drifted weights.
type deltaTask struct {
	nd bisect.FlatNode
	t  float64
	f  float64
}

// wcount accumulates one repair worker's counters without sharing.
type wcount struct {
	splits   int
	oversize int
}

// DeltaPlanner patches a previously computed Plan against a drifted
// weight vector instead of replanning from scratch (DESIGN.md §15). It
// wraps one Planner, which re-bisects dirty subtrees and runs the
// full-replan fallback. When that planner has workers, a large plan's
// replan fans out like any plan, and a repair of at least 32 dirty
// subtrees fans out across the same workers.
//
// The patch pipeline: apply the deltas to the prior parts, flag every
// part whose per-processor load exceeds Band times the drifted mean
// (the α-band dirty rule), pull in the lightest clean parts as donors
// until the pool's mean is at most the global mean, re-bisect the dirty
// subtrees until every fragment is at most the pool mean, and LPT-pack
// fragments plus donors onto the pool's processors. Untouched parts keep
// their node IDs, weights (drifted) and processor counts — the splice
// invariant that makes patched plans diffable against the prior plan.
//
// A DeltaPlanner is not safe for concurrent use; the serving layer pools
// them like Planners. The zero value is not ready — use NewDeltaPlanner.
type DeltaPlanner struct {
	pl *Planner

	factors []float64
	inPool  []bool
	dirty   []int32
	clean   []int32
	donors  int
	tasks   []deltaTask
	frag    Plan
	order   []int32
	itemBin []int32
	binLoad []float64
	binHeap []int32
	loads   []float64
	wc      []wcount
}

// NewDeltaPlanner returns a DeltaPlanner sized for plans of about n
// parts, repairing with a private one-worker Planner.
func NewDeltaPlanner(n int) *DeltaPlanner {
	return &DeltaPlanner{pl: NewPlanner(n)}
}

// NewParallelDeltaPlanner is NewDeltaPlanner over a planner built by
// NewParallelPlanner(n, opt).
func NewParallelDeltaPlanner(n int, opt ParallelOptions) *DeltaPlanner {
	return &DeltaPlanner{pl: NewParallelPlanner(n, opt)}
}

// SetMetrics points the wrapped planner's instrumentation at reg.
func (dp *DeltaPlanner) SetMetrics(reg *obs.Registry) { dp.pl.SetMetrics(reg) }

// Footprint reports the bytes retained by the delta planner's own
// scratch plus its wrapped planner, for pool stewardship.
func (dp *DeltaPlanner) Footprint() int {
	return dp.pl.Footprint() +
		(cap(dp.factors)+cap(dp.binLoad)+cap(dp.loads))*int(unsafe.Sizeof(float64(0))) +
		(cap(dp.dirty)+cap(dp.clean)+cap(dp.order)+cap(dp.itemBin)+cap(dp.binHeap))*int(unsafe.Sizeof(int32(0))) +
		cap(dp.inPool)*int(unsafe.Sizeof(false)) +
		cap(dp.tasks)*int(unsafe.Sizeof(deltaTask{})) +
		cap(dp.frag.Parts)*int(unsafe.Sizeof(FlatPart{})) +
		cap(dp.wc)*int(unsafe.Sizeof(wcount{}))
}

// findPart binary-searches the ID-sorted parts for id.
func findPart(parts []FlatPart, id uint64) int {
	lo, hi := 0, len(parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if parts[mid].Node.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(parts) && parts[lo].Node.ID == id {
		return lo
	}
	return -1
}

// PatchInto patches prior against the drifted weights described by
// deltas, writing the result into dst and returning the plan to serve:
//
//   - no part left the band → the prior *Plan itself (dst untouched
//     except Stats) — the noop contract callers key caching on;
//   - dirty weight fraction ≥ ½ → &dst.Plan holding a from-scratch
//     plan, bit-identical to planning the root fresh;
//   - otherwise → &dst.Plan holding the spliced patch, with dst.Group /
//     dst.GroupProcs describing the repair groups.
//
// root must be the same problem root prior was planned from (checked
// against prior.Total); k must be the matching kernel. The patched
// ratio obeys max(Band, 2−1/P) whenever Stats.Oversize and
// Stats.OversizeLeaves are zero — verify.CheckPatchRatio re-derives and
// checks the realized bound either way.
func (dp *DeltaPlanner) PatchInto(dst *PatchedPlan, k bisect.Kernel, root bisect.FlatNode, prior *Plan, deltas []WeightDelta, opt PatchOptions) (*Plan, PatchStats, error) {
	var zero PatchStats
	if dst == nil || prior == nil {
		return nil, zero, errors.New("core: PatchInto requires a dst buffer and a prior plan")
	}
	if err := plannerValidate(root, prior.N); err != nil {
		return nil, zero, err
	}
	if len(prior.Parts) == 0 {
		return nil, zero, fmt.Errorf("%w: prior plan has no parts", ErrPlanMismatch)
	}
	if root.Weight != prior.Total {
		return nil, zero, fmt.Errorf("%w: root weight %v vs prior total %v", ErrPlanMismatch, root.Weight, prior.Total)
	}
	band, err := bounds.Guarantee(prior.Algorithm, opt.Alpha, opt.Kappa, prior.N)
	if err != nil {
		return nil, zero, err
	}
	band = max(band, 2)

	parts := prior.Parts
	dp.factors = grow(dp.factors, len(parts))
	for i := range dp.factors {
		dp.factors[i] = 1
	}
	for _, d := range deltas {
		if !(d.Factor > 0) || math.IsInf(d.Factor, 0) {
			return nil, zero, fmt.Errorf("%w: part %d factor %v", ErrBadFactor, d.ID, d.Factor)
		}
		i := findPart(parts, d.ID)
		if i < 0 {
			return nil, zero, fmt.Errorf("%w: id %d", ErrUnknownPart, d.ID)
		}
		dp.factors[i] = d.Factor
	}

	totalD := 0.0
	for i, pt := range parts {
		totalD += dp.factors[i] * pt.Node.Weight
	}
	meanD := totalD / float64(prior.N)
	// Tiny relative slack keeps a prior plan sitting exactly on its
	// guarantee bound from being flagged dirty by its own rounding.
	thresh := band * meanD * (1 + 1e-9)

	stats := PatchStats{Band: band, DriftedTotal: totalD}
	lk := lazyOf(k)
	dp.dirty = dp.dirty[:0]
	dirtyW := 0.0
	for i, pt := range parts {
		w := dp.factors[i] * pt.Node.Weight
		if w/float64(pt.Procs) > thresh {
			if !splittable(lk, &parts[i].Node) {
				stats.OversizeLeaves++
			} else {
				dp.dirty = append(dp.dirty, int32(i))
				dirtyW += w
			}
		}
	}
	stats.Dirty = len(dp.dirty)
	stats.DirtyWeight = dirtyW
	if len(dp.dirty) == 0 {
		stats.Outcome = PatchNoop
		stats.Untouched = len(parts)
		dst.Stats = stats
		return prior, stats, nil
	}

	if dirtyW >= fullReplanFrac*totalD {
		if err := dp.freshInto(&dst.Plan, k, root, prior, opt); err != nil {
			return nil, zero, err
		}
		dst.Group = grow(dst.Group, len(dst.Plan.Parts))
		dst.GroupProcs = grow(dst.GroupProcs, len(dst.Plan.Parts))
		for i, pt := range dst.Plan.Parts {
			dst.Group[i] = int32(i)
			dst.GroupProcs[i] = pt.Procs
		}
		stats.Outcome = PatchFullReplan
		stats.Splits = dst.Plan.Bisections
		stats.Untouched = 0
		dst.Stats = stats
		return &dst.Plan, stats, nil
	}

	// Donor selection: pool the dirty parts, then add the lightest clean
	// single-processor parts until the pool's per-processor mean is at
	// most the drifted mean (the whole plan's mean is exactly meanD when
	// processor counts sum to N, so this terminates; if clean parts run
	// out first the pool mean stays where it is and the realized bound
	// reported by the checker widens accordingly).
	dp.inPool = grow(dp.inPool, len(parts))
	for i := range dp.inPool {
		dp.inPool[i] = false
	}
	poolW, poolP := 0.0, 0
	for _, di := range dp.dirty {
		dp.inPool[di] = true
		poolW += dp.factors[di] * parts[di].Node.Weight
		poolP += int(parts[di].Procs)
	}
	dp.clean = dp.clean[:0]
	for i, pt := range parts {
		if !dp.inPool[i] && pt.Procs == 1 {
			dp.clean = append(dp.clean, int32(i))
		}
	}
	// Only the lightest few clean parts are needed, so a min-heap pops
	// them in (load asc, ID asc) order instead of fully sorting the clean
	// set — the selected donors and their order are exactly a full sort's
	// prefix, at O(n + d·log n) instead of O(n·log n).
	cn := len(dp.clean)
	for i := cn/2 - 1; i >= 0; i-- {
		siftLoadMin(parts, dp.factors, dp.clean, i, cn)
	}
	dp.donors = 0
	heapN := cn
	for heapN > 0 && poolW > meanD*float64(poolP) {
		ci := dp.clean[0]
		heapN--
		dp.clean[0], dp.clean[heapN] = dp.clean[heapN], ci
		siftLoadMin(parts, dp.factors, dp.clean, 0, heapN)
		dp.inPool[ci] = true
		poolW += dp.factors[ci] * parts[ci].Node.Weight
		poolP++
		dp.donors++
	}
	stats.Donors = dp.donors
	stats.Pool = poolP
	m := poolW / float64(poolP)

	// Repair: split every dirty subtree until its fragments' drifted
	// weights are at most the bin target m. Within one prior part the
	// drift factor is a single scalar, so the split runs on model
	// weights against the model threshold m/f and scales the fragments
	// afterwards — the kernels conserve weight bitwise, so this is exact.
	// The split cap bounds the bisections spent on one dirty subtree:
	// far above the ~P fragments any real repair needs, it exists to
	// bound adversarial inputs, and fragments still above target when it
	// binds are counted in PatchStats.Oversize.
	limit := 4*prior.N + 64
	dp.tasks = dp.tasks[:0]
	for _, di := range dp.dirty {
		f := dp.factors[di]
		dp.tasks = append(dp.tasks, deltaTask{nd: parts[di].Node, t: m / f, f: f})
	}
	dp.frag.Parts = dp.frag.Parts[:0]
	if len(dp.tasks) >= fanOutMinDirty && dp.pl.fansOut(prior.N, k) {
		dp.splitParallel(k, limit, &stats)
	} else {
		for _, t := range dp.tasks {
			start := len(dp.frag.Parts)
			s, ov := dp.pl.thresholdExpand(&dp.frag, k, t.nd, t.t, limit)
			stats.Splits += s
			stats.Oversize += ov
			for j := start; j < len(dp.frag.Parts); j++ {
				dp.frag.Parts[j].Node.Weight *= t.f
			}
		}
	}
	for i := 0; i < dp.donors; i++ {
		di := dp.clean[cn-1-i] // pop order: lightest donor first
		nd := parts[di].Node
		nd.Weight *= dp.factors[di]
		dp.frag.Parts = append(dp.frag.Parts, FlatPart{Node: nd, Procs: 1})
	}
	items := dp.frag.Parts
	stats.PoolItems = len(items)

	// LPT packing: items heaviest-first into the least-loaded of P
	// single-processor bins (min-heap keyed load-then-index, so ties are
	// deterministic). With every item at most m this bounds the heaviest
	// bin by (2−1/P)·m ≤ Band·mean; the general greedy bound mean+max
	// holds regardless and is what CheckPatchRatio verifies.
	P := poolP
	dp.order = grow(dp.order, len(items))
	for i := range dp.order {
		dp.order[i] = int32(i)
	}
	slices.SortFunc(dp.order, func(a, b int32) int {
		return heavierFirst(items[a].Node.Weight, items[b].Node.Weight, items[a].Node.ID, items[b].Node.ID)
	})
	dp.binLoad = grow(dp.binLoad, P)
	dp.binHeap = grow(dp.binHeap, P)
	for i := 0; i < P; i++ {
		dp.binLoad[i] = 0
		dp.binHeap[i] = int32(i)
	}
	dp.itemBin = grow(dp.itemBin, len(items))
	for _, oi := range dp.order {
		b := dp.binHeap[0]
		dp.itemBin[oi] = b
		dp.binLoad[b] += items[oi].Node.Weight
		siftBinDown(dp.binLoad, dp.binHeap, 0)
	}

	// Splice: untouched parts pass through with drifted weights as
	// singleton groups (stable IDs, stable processor counts), then the
	// pool items land in their bins' groups. The untouched parts inherit
	// the prior plan's canonical ascending-ID order, so merging them with
	// the ID-sorted items restores the canonical order in O(n + i·log i)
	// instead of re-sorting the whole plan.
	dst.Plan.reset(prior.Algorithm+"+patch", prior.N, totalD)
	gp := dst.GroupProcs[:0]
	for i, pt := range parts {
		if dp.inPool[i] {
			continue
		}
		nd := pt.Node
		nd.Weight *= dp.factors[i]
		dst.Plan.Parts = append(dst.Plan.Parts, FlatPart{Node: nd, Procs: pt.Procs})
		gp = append(gp, pt.Procs)
	}
	u := len(gp)
	stats.Untouched = u
	for b := 0; b < P; b++ {
		gp = append(gp, 1)
	}
	dst.GroupProcs = gp

	// dp.order is free again after the LPT pass; reuse it for the item ID
	// order, then merge backwards (reads of the untouched prefix stay
	// ahead of the write cursor, so the merge is in place).
	for i := range dp.order {
		dp.order[i] = int32(i)
	}
	slices.SortFunc(dp.order, func(a, b int32) int { return cmp.Compare(items[a].Node.ID, items[b].Node.ID) })
	total := u + len(items)
	dst.Plan.Parts = append(dst.Plan.Parts, items...)
	grp := grow(dst.Group, total)
	pi, j := u-1, len(items)-1
	for w := total - 1; w >= 0; w-- {
		if j < 0 || (pi >= 0 && dst.Plan.Parts[pi].Node.ID > items[dp.order[j]].Node.ID) {
			dst.Plan.Parts[w] = dst.Plan.Parts[pi]
			grp[w] = int32(pi)
			pi--
		} else {
			oi := dp.order[j]
			dst.Plan.Parts[w] = items[oi]
			grp[w] = int32(u) + dp.itemBin[oi]
			j--
		}
	}
	dst.Group = grp

	// Summary over group loads, so Max/Ratio stay comparable with a
	// fresh plan's quality measure.
	dp.loads = dst.GroupLoads(dp.loads)
	maxL := 0.0
	for _, l := range dp.loads {
		if l > maxL {
			maxL = l
		}
	}
	maxD := int32(0)
	for _, pt := range dst.Plan.Parts {
		if pt.Node.Depth > maxD {
			maxD = pt.Node.Depth
		}
	}
	dst.Plan.Max = maxL
	dst.Plan.MaxDepth = int(maxD)
	dst.Plan.Ratio = bisect.Ratio(maxL, totalD, prior.N)
	dst.Plan.Bisections = stats.Splits
	stats.Outcome = PatchPatched
	dst.Stats = stats
	return &dst.Plan, stats, nil
}

// freshInto recomputes the plan from the root with the prior plan's
// algorithm — the full-replan fallback, bit-identical to a fresh plan.
func (dp *DeltaPlanner) freshInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, prior *Plan, opt PatchOptions) error {
	n := prior.N
	switch prior.Algorithm {
	case "HF":
		return dp.pl.HFInto(plan, k, root, n)
	case "PHF":
		return dp.pl.PHFInto(plan, k, root, n, opt.Alpha)
	case "BA":
		return dp.pl.BAInto(plan, k, root, n)
	case "BA-HF":
		return dp.pl.BAHFInto(plan, k, root, n, opt.Alpha, opt.Kappa)
	default:
		return fmt.Errorf("core: cannot replan algorithm %q", prior.Algorithm)
	}
}

// splitParallel fans the dirty-subtree repairs out across the planner's
// workers with the same atomic-cursor discipline as baPlan. Fragment order differs from the sequential path but the
// LPT sort and the final ID sort are total orders over unique IDs, so
// the patched plan is bit-identical either way (pinned by
// TestPatchParityAcrossConfigs).
func (dp *DeltaPlanner) splitParallel(k bisect.Kernel, limit int, stats *PatchStats) {
	w := dp.pl.opt.Workers
	dp.pl.ensureWorkers(w)
	active := dp.pl.workers[:w]
	dp.wc = grow(dp.wc, w)
	clear(dp.wc)
	for _, pw := range active {
		pw.plan.Parts = pw.plan.Parts[:0]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi, pw := range active {
		wg.Add(1)
		go func(wi int, pw *pworker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dp.tasks) {
					return
				}
				t := dp.tasks[i]
				start := len(pw.plan.Parts)
				s, ov := pw.pl.thresholdExpand(&pw.plan, k, t.nd, t.t, limit)
				for j := start; j < len(pw.plan.Parts); j++ {
					pw.plan.Parts[j].Node.Weight *= t.f
				}
				dp.wc[wi].splits += s
				dp.wc[wi].oversize += ov
			}
		}(wi, pw)
	}
	wg.Wait()
	for wi, pw := range active {
		dp.frag.Parts = append(dp.frag.Parts, pw.plan.Parts...)
		stats.Splits += dp.wc[wi].splits
		stats.Oversize += dp.wc[wi].oversize
	}
	stats.Parallel = true
}

// thresholdExpand splits nd depth-first until every fragment weighs at
// most t, appending fragments to plan.Parts (Procs 1) and returning the
// bisection count plus the number of fragments still above t
// (indivisible leaves, or the split limit binding). Unlike hfExpand
// the stopping rule is a weight threshold, not a part count, so the
// fragment set is independent of expansion order — what makes the
// repair's parallel fan-out bit-identical to the sequential path.
func (pl *Planner) thresholdExpand(plan *Plan, k bisect.Kernel, nd bisect.FlatNode, t float64, limit int) (splits, oversize int) {
	lk := lazyOf(k)
	pl.stack = append(pl.stack[:0], baFrame{nd, 1})
	for len(pl.stack) > 0 {
		fr := pl.stack[len(pl.stack)-1]
		pl.stack = pl.stack[:len(pl.stack)-1]
		if fr.nd.Weight <= t || splits >= limit || !splittable(lk, &fr.nd) {
			if fr.nd.Weight > t {
				oversize++
			}
			plan.Parts = append(plan.Parts, FlatPart{Node: fr.nd, Procs: 1})
			continue
		}
		c1, c2 := k.Split(fr.nd)
		splits++
		pl.stack = append(pl.stack, baFrame{c2, 1}, baFrame{c1, 1})
	}
	return splits, oversize
}

// grow resizes a scratch slice to n elements without reallocating when
// its capacity suffices; a reallocated slice is zeroed, a reused one is
// not.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// loadLess orders ascending drifted per-proc load, then ascending ID —
// the donor selection order. siftLoadMin maintains a min-heap of that
// order so the donor loop pops the lightest clean part in O(log n)
// without sorting the full clean set.
func loadLess(parts []FlatPart, factors []float64, a, b int32) bool {
	la := factors[a] * parts[a].Node.Weight / float64(parts[a].Procs)
	lb := factors[b] * parts[b].Node.Weight / float64(parts[b].Procs)
	if la != lb {
		return la < lb
	}
	return parts[a].Node.ID < parts[b].Node.ID
}

func siftLoadMin(parts []FlatPart, factors []float64, idx []int32, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && loadLess(parts, factors, idx[r], idx[l]) {
			small = r
		}
		if !loadLess(parts, factors, idx[small], idx[i]) {
			return
		}
		idx[i], idx[small] = idx[small], idx[i]
		i = small
	}
}

// siftBinDown restores the min-heap property of the bin heap at i; the
// heap orders bins by (load asc, index asc) so LPT tie-breaks are
// deterministic.
func siftBinDown(load []float64, heap []int32, i int) {
	n := len(heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && binLess(load, heap[r], heap[l]) {
			small = r
		}
		if !binLess(load, heap[small], heap[i]) {
			return
		}
		heap[i], heap[small] = heap[small], heap[i]
		i = small
	}
}

func binLess(load []float64, a, b int32) bool {
	if load[a] != load[b] {
		return load[a] < load[b]
	}
	return a < b
}
