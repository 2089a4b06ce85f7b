package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/obs"
)

// Metric names recorded by ParallelPlanner when ParallelOptions.Metrics
// is set.
const (
	mPPlanTasks      = "core.pplan.tasks"
	mPPlanSpawns     = "core.pplan.goroutine_spawns"
	mPPlanWallNs     = "core.pplan.wall_ns"
	mPPlanSeqFalls   = "core.pplan.sequential_fallbacks"
	mPPlanBisections = "core.pplan.bisections"
)

// ParallelOptions configure a ParallelPlanner.
type ParallelOptions struct {
	// Workers is the number of goroutines to use. Zero means GOMAXPROCS.
	Workers int
	// SpawnThreshold is the floor of the task grain (see
	// ParallelPlanner.grain): a plan for at most that many processors
	// runs sequentially, and no subtree task is cut smaller. Zero means
	// 64.
	SpawnThreshold int
	// Metrics, when non-nil, receives the planner's counters and its
	// wall-time histogram (the core.pplan.* names above). A nil registry
	// costs one atomic add per instrumented event — the instruments are
	// shared discards.
	Metrics *obs.Registry
}

func (o ParallelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o ParallelOptions) spawnThreshold() int {
	if o.SpawnThreshold > 0 {
		return o.SpawnThreshold
	}
	return 64
}

// subtreeTask is one independent subtree handed to a worker: plan nd
// into at most procs parts. The cutoff travels per call, not per task,
// because every task of one plan shares the algorithm's κ/α threshold.
type subtreeTask struct {
	nd    bisect.FlatNode
	procs int32
}

// pworker is one worker's private state: a full sequential Planner (its
// own arena, queue and stack — nothing shared, so no synchronisation on
// the hot path) plus a Plan used purely as a parts accumulator.
type pworker struct {
	pl   Planner
	plan Plan
	bis  int
}

// ParallelPlanner plans partitions across GOMAXPROCS-style worker
// goroutines while producing output bit-identical to the sequential
// Planner (pinned by TestParallelPlannerParity under -race).
//
// The decomposition exploits the structure of Algorithm BA (paper
// Figure 3): after a bisection the two recursive calls are independent —
// "these recursive calls can be executed in parallel on different
// processors" — so the planner expands the top of the recursion tree
// sequentially until every pending subtree holds at most grain
// processors, then fans those subtrees out as tasks over a dynamic
// (atomic-cursor) work queue. Each worker plans its subtrees with a
// private sequential Planner; the merge concatenates per-worker parts in
// worker order and finalize sorts by unique node ID, so the result is
// independent of the task→worker assignment and identical to the
// sequential plan part for part. The merge and that ID sort (which uses
// the sequential fallback planner's scratch) run on the calling
// goroutine: they are the sequential part of every parallel plan.
//
// Algorithm HF has no such decomposition: its queue is global, and which
// subproblem is bisected next depends on every part planned so far, so
// any subtree split changes the output. HFInto therefore falls back to
// the sequential planner, whose monotone bucket queue keeps the
// per-operation cost amortized O(1); BA-HF gets true parallelism
// because its HF phases are confined to independent subtrees by
// construction. PHFInto likewise delegates to the sequential flat
// planner: PHF yields HF's partition (Theorem 3), so its rounds change
// when bisections run, not which ones; internal/machine and
// internal/dist model that schedule.
//
// A ParallelPlanner is not safe for concurrent use; the serving layer
// pools whole ParallelPlanners the way it pools Planners. At steady
// state each worker plans with zero heap allocations
// (TestParallelPlannerWorkerAllocationFree); the per-call goroutine
// spawns are the only allocations that remain.
type ParallelPlanner struct {
	opt     ParallelOptions
	seq     Planner
	workers []*pworker
	tasks   []subtreeTask
	stack   []baFrame
}

// NewParallelPlanner returns a planner for plans of about n parts using
// the given options (zero Workers means GOMAXPROCS; see ParallelOptions).
func NewParallelPlanner(n int, opt ParallelOptions) *ParallelPlanner {
	pp := &ParallelPlanner{opt: opt, seq: *NewPlanner(n)}
	pp.ensureWorkers(opt.workers())
	return pp
}

// Options returns the planner's parallel options.
func (pp *ParallelPlanner) Options() ParallelOptions { return pp.opt }

// SetMetrics points the planner's instrumentation at reg (nil disables).
func (pp *ParallelPlanner) SetMetrics(reg *obs.Registry) { pp.opt.Metrics = reg }

// SetBucketQueue has no effect, like Planner.SetBucketQueue.
//
// Deprecated: every planner always uses the bucket queue; there is
// nothing to select.
func (pp *ParallelPlanner) SetBucketQueue(bool) {}

// Footprint reports the total bytes retained across the sequential
// fallback planner, every worker's planner and parts buffer, and the
// task queue. Pool stewards cap it like Planner.Footprint.
func (pp *ParallelPlanner) Footprint() int {
	f := pp.seq.Footprint() +
		cap(pp.tasks)*int(unsafe.Sizeof(subtreeTask{})) +
		cap(pp.stack)*int(unsafe.Sizeof(baFrame{}))
	for _, pw := range pp.workers {
		f += pw.pl.Footprint() + cap(pw.plan.Parts)*int(unsafe.Sizeof(FlatPart{}))
	}
	return f
}

func (pp *ParallelPlanner) ensureWorkers(w int) {
	for len(pp.workers) < w {
		pp.workers = append(pp.workers, &pworker{})
	}
}

// BAInto runs Algorithm BA over the flat substrate k with worker
// goroutines, writing a partition bit-identical to Planner.BAInto's.
func (pp *ParallelPlanner) BAInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	plan.reset("BA", n, root.Weight)
	pp.planInto(plan, k, root, n, 0)
	return nil
}

// BAHFInto runs Algorithm BA-HF over the flat substrate k with worker
// goroutines, writing a partition bit-identical to Planner.BAHFInto's.
// The HF finishing phases below the κ/α+1 cutoff are confined to
// independent subtrees, so they parallelise with the subtrees.
func (pp *ParallelPlanner) BAHFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha, kappa float64) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return err
	}
	if err := bounds.ValidateKappa(kappa); err != nil {
		return err
	}
	plan.reset("BA-HF", n, root.Weight)
	pp.planInto(plan, k, root, n, kappa/alpha+1)
	return nil
}

// HFInto runs Algorithm HF sequentially — HF's global heaviest-first
// queue admits no bit-identical subtree decomposition (see the type
// comment) — reusing the planner's sequential fallback buffers.
func (pp *ParallelPlanner) HFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
	pp.opt.Metrics.Counter(mPPlanSeqFalls).Add(1)
	return pp.seq.HFInto(plan, k, root, n)
}

// PHFInto runs the logical Algorithm PHF sequentially via the fallback
// planner.
func (pp *ParallelPlanner) PHFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
	pp.opt.Metrics.Counter(mPPlanSeqFalls).Add(1)
	return pp.seq.PHFInto(plan, k, root, n, alpha)
}

// grain returns the largest processor count a subtree may hold and still
// become a worker task: at least the spawn threshold (tiny tasks cost
// more to dispatch than to plan), and at most n/(8·workers) so the
// dynamic queue holds ~8 tasks per worker — enough slack for the
// heaviest-subtree skew BA's weight-proportional splitting produces.
func (pp *ParallelPlanner) grain(n, w int) int {
	g := pp.opt.spawnThreshold()
	if byWork := n / (8 * w); byWork > g {
		g = byWork
	}
	return g
}

// planInto is the shared BA/BA-HF engine: sequential top expansion,
// parallel subtree planning, deterministic merge.
func (pp *ParallelPlanner) planInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, cutoff float64) {
	w := pp.opt.workers()
	grain := pp.grain(n, w)
	if w < 2 || n <= grain || !concurrentSplit(k) {
		// One worker, a plan too small to split, or a kernel whose Split
		// mutates shared state (the problem kernel's arena): plan on the
		// calling goroutine. Same output by definition.
		pp.opt.Metrics.Counter(mPPlanSeqFalls).Add(1)
		plan.finalize(&pp.seq.ids, pp.seq.baExpand(plan, k, root, int32(n), cutoff))
		return
	}
	wallStart := time.Now()

	pp.tasks = pp.tasks[:0]
	bis := pp.expandTop(plan, k, root, int32(n), cutoff, int32(grain))

	pp.ensureWorkers(w)
	active := pp.workers[:w]
	for _, pw := range active {
		pw.plan.Parts = pw.plan.Parts[:0]
		pw.bis = 0
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, pw := range active {
		wg.Add(1)
		go func(pw *pworker) {
			defer wg.Done()
			pp.runWorker(pw, k, cutoff, &next)
		}(pw)
	}
	wg.Wait()

	// Deterministic merge: concatenation order is worker order, but the
	// part set is independent of the task→worker assignment and finalize
	// sorts by unique node ID, so the assembled plan is bit-identical to
	// the sequential one regardless of scheduling.
	for _, pw := range active {
		plan.Parts = append(plan.Parts, pw.plan.Parts...)
		bis += pw.bis
	}

	pp.opt.Metrics.Counter(mPPlanTasks).Add(int64(len(pp.tasks)))
	pp.opt.Metrics.Counter(mPPlanSpawns).Add(int64(w))
	pp.opt.Metrics.Counter(mPPlanBisections).Add(int64(bis))
	pp.opt.Metrics.Histogram(mPPlanWallNs).ObserveSince(wallStart)
	plan.finalize(&pp.seq.ids, bis)
}

// expandTop mirrors Planner.baExpand but stops at subtrees of at most
// grain processors (or below the BA-HF cutoff), pushing them as tasks
// instead of planning them. Leaves and single-processor frames reached
// near the root become parts of plan directly. Returns the top-level
// bisection count.
func (pp *ParallelPlanner) expandTop(plan *Plan, k bisect.Kernel, nd bisect.FlatNode, procs int32, cutoff float64, grain int32) int {
	lk := lazyOf(k)
	bisections := 0
	pp.stack = append(pp.stack[:0], baFrame{nd, procs})
	for len(pp.stack) > 0 {
		fr := pp.stack[len(pp.stack)-1]
		pp.stack = pp.stack[:len(pp.stack)-1]
		if fr.procs == 1 || !splittable(lk, &fr.nd) {
			plan.Parts = append(plan.Parts, FlatPart{Node: fr.nd, Procs: fr.procs})
			continue
		}
		if fr.procs <= grain || float64(fr.procs) < cutoff {
			pp.tasks = append(pp.tasks, subtreeTask{fr.nd, fr.procs})
			continue
		}
		c1, c2 := k.Split(fr.nd)
		bisections++
		if c1.Weight < c2.Weight {
			c1, c2 = c2, c1
		}
		n1, n2 := SplitProcs(c1.Weight, c2.Weight, int(fr.procs))
		pp.stack = append(pp.stack, baFrame{c2, int32(n2)}, baFrame{c1, int32(n1)})
	}
	return bisections
}

// runWorker drains the task queue through one worker: the atomic cursor
// hands out tasks dynamically so a worker that draws light subtrees
// takes more of them. Each task runs the identical baExpand the
// sequential planner uses, against worker-private buffers.
func (pp *ParallelPlanner) runWorker(pw *pworker, k bisect.Kernel, cutoff float64, next *atomic.Int64) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(pp.tasks) {
			return
		}
		t := pp.tasks[i]
		pw.bis += pw.pl.baExpand(&pw.plan, k, t.nd, t.procs, cutoff)
	}
}
