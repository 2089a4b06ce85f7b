package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/obs"
)

// lowerFanOut lowers the fan-out cutoffs for the rest of the test, so
// plans of a few processors fan out and the parity nets stay fast.
func lowerFanOut(t *testing.T) {
	t.Helper()
	n, d := fanOutMinN, fanOutMinDirty
	fanOutMinN, fanOutMinDirty = 1, 1
	t.Cleanup(func() { fanOutMinN, fanOutMinDirty = n, d })
}

// workerCounts spans 1..GOMAXPROCS plus an oversubscribed count, so the
// parity net also covers more workers than cores.
func workerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := make([]int, 0, max+1)
	for w := 1; w <= max; w++ {
		counts = append(counts, w)
	}
	return append(counts, max*2+1)
}

// TestParallelPlannerParity is the tentpole acceptance check: for every
// algorithm, every kernel substrate and every worker count, a planner
// with workers must write the bit-identical plan a one-worker planner
// writes — same parts in the same order, same accounting. Run under
// -race this also nets data races in the fan-out/merge.
func TestParallelPlannerParity(t *testing.T) {
	lowerFanOut(t)
	ns := []int{1, 2, 17, 64, 333, 1024, 4096}
	for _, tc := range flatCases() {
		for _, w := range workerCounts() {
			pp := NewParallelPlanner(64, ParallelOptions{Workers: w})
			seq := NewPlanner(64)
			var sp, cp Plan
			for _, n := range ns {
				if err := seq.BAInto(&sp, tc.kernel, tc.flat, n); err != nil {
					t.Fatalf("%s w=%d n=%d seq BA: %v", tc.name, w, n, err)
				}
				if err := pp.BAInto(&cp, tc.kernel, tc.flat, n); err != nil {
					t.Fatalf("%s w=%d n=%d par BA: %v", tc.name, w, n, err)
				}
				checkPlansIdentical(t, &sp, &cp)

				if err := seq.BAHFInto(&sp, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatalf("%s w=%d n=%d seq BA-HF: %v", tc.name, w, n, err)
				}
				if err := pp.BAHFInto(&cp, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatalf("%s w=%d n=%d par BA-HF: %v", tc.name, w, n, err)
				}
				checkPlansIdentical(t, &sp, &cp)

				if err := seq.HFInto(&sp, tc.kernel, tc.flat, n); err != nil {
					t.Fatalf("%s w=%d n=%d seq HF: %v", tc.name, w, n, err)
				}
				if err := pp.HFInto(&cp, tc.kernel, tc.flat, n); err != nil {
					t.Fatalf("%s w=%d n=%d par HF: %v", tc.name, w, n, err)
				}
				checkPlansIdentical(t, &sp, &cp)

				if err := seq.PHFInto(&sp, tc.kernel, tc.flat, n, 0.1); err != nil {
					t.Fatalf("%s w=%d n=%d seq PHF: %v", tc.name, w, n, err)
				}
				if err := pp.PHFInto(&cp, tc.kernel, tc.flat, n, 0.1); err != nil {
					t.Fatalf("%s w=%d n=%d par PHF: %v", tc.name, w, n, err)
				}
				checkPlansIdentical(t, &sp, &cp)
			}
		}
	}
}

// TestParallelPlannerBucketQueueParity repeats the BA-HF parity check
// at up to N = 4096 on a planner told the deprecated, no-op
// SetBucketQueue(true), which perfbench still calls.
func TestParallelPlannerBucketQueueParity(t *testing.T) {
	lowerFanOut(t)
	for _, tc := range flatCases() {
		for _, w := range []int{1, 2, 4} {
			pp := NewParallelPlanner(64, ParallelOptions{Workers: w})
			pp.SetBucketQueue(true)
			seq := NewPlanner(64)
			var sp, cp Plan
			for _, n := range []int{17, 333, 1024, 4096} {
				if err := seq.BAHFInto(&sp, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatal(err)
				}
				if err := pp.BAHFInto(&cp, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatal(err)
				}
				checkPlansIdentical(t, &sp, &cp)
			}
		}
	}
}

// TestParallelPlannerReuse drives one planner through interleaved
// algorithms and sizes twice and demands the warm pass reproduce the
// cold pass exactly — buffer reuse must never leak state across runs.
func TestParallelPlannerReuse(t *testing.T) {
	lowerFanOut(t)
	pp := NewParallelPlanner(256, ParallelOptions{Workers: 4})
	k := bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 9)
	run := func(plan *Plan) []FlatPart {
		if err := pp.BAInto(plan, k, root, 1024); err != nil {
			t.Fatal(err)
		}
		out := append([]FlatPart(nil), plan.Parts...)
		if err := pp.BAHFInto(plan, k, root, 512, 0.1, 1); err != nil {
			t.Fatal(err)
		}
		return append(out, plan.Parts...)
	}
	var plan Plan
	a := run(&plan)
	b := run(&plan)
	if len(a) != len(b) {
		t.Fatalf("reuse changed part count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reuse changed part %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestParallelPlannerWorkerAllocationFree pins the per-worker steady
// state: re-driving one warm worker over a retained task queue performs
// zero heap allocations. (The public entry points still pay the
// per-call goroutine spawns; this isolates the planning work itself.)
func TestParallelPlannerWorkerAllocationFree(t *testing.T) {
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 42)
	lowerFanOut(t)
	pp := NewParallelPlanner(4096, ParallelOptions{Workers: 2})
	var plan Plan
	if err := pp.BAHFInto(&plan, k, root, 4096, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if len(pp.tasks) == 0 {
		t.Fatal("no tasks retained; grain too coarse for the test setup")
	}
	pw := pp.workers[0]
	// Warm the single worker over the full queue once: solo it plans
	// every task, so its buffers reach the union high-water mark.
	var next atomic.Int64
	pw.plan.Parts = pw.plan.Parts[:0]
	pp.runWorker(pw, k, 11, &next)
	allocs := testing.AllocsPerRun(10, func() {
		next.Store(0)
		pw.plan.Parts = pw.plan.Parts[:0]
		pw.bis = 0
		pp.runWorker(pw, k, 11, &next)
	})
	if allocs != 0 {
		t.Fatalf("steady-state worker planning allocates %v allocs/op, want 0", allocs)
	}
}

// TestParallelPlannerMetrics checks the counters move, FannedOut
// reports the fan-out, and sequential fallbacks are counted where
// documented: for HF above the cutoff, not for plans below it.
func TestParallelPlannerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	pp := NewParallelPlanner(1024, ParallelOptions{Workers: 2, Metrics: reg})
	k := bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 3)
	var plan Plan
	if err := pp.BAInto(&plan, k, root, 1024); err != nil {
		t.Fatal(err)
	}
	if pp.FannedOut() || reg.Counter(mPPlanSeqFalls).Value() != 0 {
		t.Fatalf("BA at N = 1024 < %d fanned out or counted a fallback", fanOutMinN)
	}
	lowerFanOut(t)
	if err := pp.BAInto(&plan, k, root, 1024); err != nil {
		t.Fatal(err)
	}
	if !pp.FannedOut() {
		t.Fatal("BA above the lowered cutoff did not fan out")
	}
	if got := reg.Counter(mPPlanTasks).Value(); got == 0 {
		t.Fatal("parallel BA recorded no tasks")
	}
	if got := reg.Counter(mPPlanSpawns).Value(); got != 2 {
		t.Fatalf("spawns = %d, want 2", got)
	}
	if err := pp.HFInto(&plan, k, root, 1024); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(mPPlanSeqFalls).Value(); got != 1 || pp.FannedOut() {
		t.Fatalf("HF recorded %d sequential fallbacks, want 1", got)
	}
	// A one-worker planner never fans out and counts nothing.
	one := NewPlanner(1024)
	one.SetMetrics(reg)
	if err := one.BAInto(&plan, k, root, 1024); err != nil || one.FannedOut() {
		t.Fatalf("one-worker BA: err %v, fanned out %v", err, one.FannedOut())
	}
	if got := reg.Counter(mPPlanSeqFalls).Value(); got != 1 {
		t.Fatalf("one-worker BA counted a fallback: %d", got)
	}
}

// TestParallelPlannerRejectsBadInput mirrors the sequential validation.
func TestParallelPlannerRejectsBadInput(t *testing.T) {
	pp := NewParallelPlanner(4, ParallelOptions{Workers: 2})
	k := bisect.FixedKernel{Alpha: 0.3}
	var plan Plan
	if err := pp.BAInto(&plan, k, bisect.FlatNode{Weight: 0}, 4); err == nil {
		t.Fatal("zero-weight root accepted")
	}
	if err := pp.BAInto(&plan, k, bisect.FixedFlatRoot(1), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if err := pp.BAHFInto(&plan, k, bisect.FixedFlatRoot(1), 4, 0, 1); err == nil {
		t.Fatal("α=0 accepted")
	}
	if err := pp.BAHFInto(&plan, k, bisect.FixedFlatRoot(1), 4, 0.1, -1); err == nil {
		t.Fatal("κ<0 accepted")
	}
}

// TestParallelPlannerAccessors covers the pool-facing surface the
// service relies on: options round-trip, late metrics injection, and
// footprint accounting over retained per-worker state.
func TestParallelPlannerAccessors(t *testing.T) {
	lowerFanOut(t)
	pp := NewParallelPlanner(256, ParallelOptions{Workers: 3})
	if got := pp.Options().Workers; got != 3 {
		t.Fatalf("Options().Workers = %d, want 3", got)
	}
	if got := NewPlanner(256).Options().Workers; got != 1 {
		t.Fatalf("NewPlanner's Options().Workers = %d, want 1", got)
	}
	if got := NewParallelPlanner(256, ParallelOptions{}).Options().Workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Workers resolved to %d, want GOMAXPROCS", got)
	}
	before := pp.Footprint()
	reg := obs.NewRegistry()
	pp.SetMetrics(reg)
	if pp.Options().Metrics != reg {
		t.Fatal("SetMetrics did not install the registry")
	}
	k := bisect.FixedKernel{Alpha: 0.3}
	var plan Plan
	if err := pp.BAInto(&plan, k, bisect.FixedFlatRoot(1), 256); err != nil {
		t.Fatal(err)
	}
	if len(pp.workers) != 3 || pp.Footprint() <= before {
		t.Fatalf("Footprint %d (was %d) must count the %d worker arenas retained after planning",
			pp.Footprint(), before, len(pp.workers))
	}
	if err := pp.BAHFInto(&plan, k, bisect.FlatNode{Weight: 0}, 4, 0.3, 1); err == nil {
		t.Fatal("BAHFInto accepted a zero-weight root")
	}
}

// TestParallelPlannerLeafRoot covers the top-expansion terminal branch:
// an indivisible root must come back as one part holding all n
// processors, identically from the parallel and sequential planners,
// and a fixed-split root exercises the heavy-child-first swap.
func TestParallelPlannerLeafRoot(t *testing.T) {
	lowerFanOut(t)
	pp := NewParallelPlanner(4096, ParallelOptions{Workers: 2})
	k := bisect.FixedKernel{Alpha: 0.3}
	leaf := bisect.FixedFlatRoot(1)
	leaf.Leaf = true
	var par, seq Plan
	if err := pp.BAInto(&par, k, leaf, 4096); err != nil {
		t.Fatal(err)
	}
	var pl Planner
	if err := pl.BAInto(&seq, k, leaf, 4096); err != nil {
		t.Fatal(err)
	}
	checkPlansIdentical(t, &seq, &par)
	if len(par.Parts) != 1 || par.Parts[0].Procs != 4096 {
		t.Fatalf("leaf root planned as %d parts, first procs %d", len(par.Parts), par.Parts[0].Procs)
	}
	if err := pp.BAInto(&par, k, bisect.FixedFlatRoot(1), 4096); err != nil {
		t.Fatal(err)
	}
	if err := pl.BAInto(&seq, k, bisect.FixedFlatRoot(1), 4096); err != nil {
		t.Fatal(err)
	}
	checkPlansIdentical(t, &seq, &par)
	if NewPlanner(0) == nil {
		t.Fatal("NewPlanner(0) must clamp, not fail")
	}
}
