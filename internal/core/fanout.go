package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb/internal/bisect"
	"bisectlb/internal/obs"
)

// Metric names recorded by a planner with workers when
// ParallelOptions.Metrics is set.
const (
	mPPlanTasks      = "core.pplan.tasks"
	mPPlanSpawns     = "core.pplan.goroutine_spawns"
	mPPlanWallNs     = "core.pplan.wall_ns"
	mPPlanSeqFalls   = "core.pplan.sequential_fallbacks"
	mPPlanBisections = "core.pplan.bisections"
)

// Fan-out cutoffs. They are variables only so that in-package tests can
// lower them; nothing else sets them.
var (
	// fanOutMinN is the smallest processor count whose BA and BA-HF plans
	// fan out across a planner's workers. Below it the goroutine spawns
	// and the merge cost more than the planning they spread (measured on
	// the serving path, DESIGN.md §10).
	fanOutMinN = 1 << 15
	// fanOutMinDirty is the dirty-subtree count at which a delta repair
	// of a plan of at least fanOutMinN processors fans out.
	fanOutMinDirty = 32
)

// minGrain is the floor of the task grain: no subtree task is cut
// smaller, because a tiny task costs more to dispatch than to plan.
const minGrain = 64

// ParallelOptions configure a planner built by NewParallelPlanner.
type ParallelOptions struct {
	// Workers is the number of goroutines to use. Zero means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives the planner's counters and its
	// wall-time histogram (the core.pplan.* names above). A nil registry
	// costs one atomic add per instrumented event — the instruments are
	// shared discards.
	Metrics *obs.Registry
}

// subtreeTask is one independent subtree handed to a worker: plan nd
// into at most procs parts. The cutoff travels per call, not per task,
// because every task of one plan shares the algorithm's κ/α threshold.
type subtreeTask struct {
	nd    bisect.FlatNode
	procs int32
}

// pworker is one worker's private state: a one-worker Planner (its own
// arena, queue and stack — nothing shared, so no synchronisation on the
// hot path) plus a Plan used purely as a parts accumulator.
type pworker struct {
	pl   Planner
	plan Plan
	bis  int
}

// NewParallelPlanner returns a planner for plans of about n parts whose
// BA and BA-HF plans fan out across opt.Workers goroutines (zero means
// GOMAXPROCS). The output is bit-identical to a one-worker planner's
// (pinned by TestParallelPlannerParity under -race).
//
// The decomposition exploits the structure of Algorithm BA (paper
// Figure 3): after a bisection the two recursive calls are independent —
// "these recursive calls can be executed in parallel on different
// processors" — so the planner expands the top of the recursion tree on
// the calling goroutine until every pending subtree holds at most grain
// processors, then fans those subtrees out as tasks over a dynamic
// (atomic-cursor) work queue. Each worker plans its subtrees with a
// private one-worker Planner; the merge concatenates per-worker parts in
// worker order and finalize sorts by unique node ID, so the result is
// independent of the task→worker assignment. The merge and the ID sort
// run on the calling goroutine: they are the sequential part of every
// fanned-out plan. The worker buffers grow on the first fan-out.
//
// A plan fans out only when the planner has at least two workers, n is
// at least 2^15 and the kernel's Split may run concurrently (the problem
// kernel's may not). Algorithm HF has no such decomposition: its queue is
// global, and which subproblem is bisected next depends on every part
// planned so far, so any subtree split changes the output. HF and PHF
// (which yields HF's partition, Theorem 3) therefore always plan on the
// calling goroutine; internal/machine and internal/dist model PHF's
// parallel schedule. BA-HF gets true parallelism because its HF phases
// are confined to independent subtrees by construction.
//
// At steady state each worker plans with zero heap allocations
// (TestParallelPlannerWorkerAllocationFree); the per-call goroutine
// spawns are the only allocations a fan-out adds.
func NewParallelPlanner(n int, opt ParallelOptions) *Planner {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	pl := NewPlanner(n)
	pl.opt = opt
	return pl
}

// Options returns the planner's parallel options; a planner built by
// NewPlanner reports one worker.
func (pl *Planner) Options() ParallelOptions {
	o := pl.opt
	o.Workers = max(o.Workers, 1)
	return o
}

// SetMetrics points the planner's instrumentation at reg (nil disables).
func (pl *Planner) SetMetrics(reg *obs.Registry) { pl.opt.Metrics = reg }

// FannedOut reports whether the planner's last plan ran on its workers.
func (pl *Planner) FannedOut() bool { return pl.fanned }

// fansOut reports whether a plan for n processors over k fans out.
func (pl *Planner) fansOut(n int, k bisect.Kernel) bool {
	return pl.opt.Workers >= 2 && n >= fanOutMinN && concurrentSplit(k)
}

// sequential records that the current plan, for n processors, runs on
// the calling goroutine. A planner with workers counts it as a fallback
// when n is large enough to fan out: an HF or PHF plan, or a kernel
// whose Split may not run concurrently.
func (pl *Planner) sequential(n int) {
	pl.fanned = false
	if pl.opt.Workers >= 2 && n >= fanOutMinN {
		pl.opt.Metrics.Counter(mPPlanSeqFalls).Add(1)
	}
}

func (pl *Planner) ensureWorkers(w int) {
	for len(pl.workers) < w {
		pl.workers = append(pl.workers, &pworker{})
	}
}

// baPlan is the BA/BA-HF engine behind BAInto and BAHFInto: the explicit
// recursion on the calling goroutine, or, when the plan fans out, top
// expansion, parallel subtree planning and the deterministic merge.
func (pl *Planner) baPlan(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, cutoff float64) {
	if !pl.fansOut(n, k) {
		pl.sequential(n)
		plan.finalize(&pl.ids, pl.baExpand(plan, k, root, int32(n), cutoff, 0))
		return
	}
	pl.fanned = true
	wallStart := time.Now()
	w := pl.opt.Workers
	// The grain keeps ~8 tasks per worker in the dynamic queue: enough
	// slack for the heaviest-subtree skew BA's weight-proportional
	// splitting produces.
	grain := max(minGrain, n/(8*w))

	pl.tasks = pl.tasks[:0]
	bis := pl.baExpand(plan, k, root, int32(n), cutoff, int32(grain))

	pl.ensureWorkers(w)
	active := pl.workers[:w]
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
			pl.runWorker(pw, k, cutoff, &next)
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

	pl.opt.Metrics.Counter(mPPlanTasks).Add(int64(len(pl.tasks)))
	pl.opt.Metrics.Counter(mPPlanSpawns).Add(int64(w))
	pl.opt.Metrics.Counter(mPPlanBisections).Add(int64(bis))
	pl.opt.Metrics.Histogram(mPPlanWallNs).ObserveSince(wallStart)
	plan.finalize(&pl.ids, bis)
}

// runWorker drains the task queue through one worker: the atomic cursor
// hands out tasks dynamically so a worker that draws light subtrees
// takes more of them. Each task runs the identical baExpand the
// sequential path uses, against worker-private buffers.
func (pl *Planner) runWorker(pw *pworker, k bisect.Kernel, cutoff float64, next *atomic.Int64) {
	for {
		i := int(next.Add(1)) - 1
		if i >= len(pl.tasks) {
			return
		}
		t := pl.tasks[i]
		pw.bis += pw.pl.baExpand(&pw.plan, k, t.nd, t.procs, cutoff, 0)
	}
}
