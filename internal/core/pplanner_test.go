package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/obs"
)

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
// algorithm, every kernel substrate and every worker count, the parallel
// planner's output must be bit-identical to the sequential planner's —
// same parts in the same order, same accounting. Run under -race this
// also nets data races in the fan-out/merge.
func TestParallelPlannerParity(t *testing.T) {
	ns := []int{1, 2, 17, 64, 333, 1024, 4096}
	for _, tc := range flatCases() {
		for _, w := range workerCounts() {
			opt := ParallelOptions{Workers: w, SpawnThreshold: 16}
			pp := NewParallelPlanner(64, opt)
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
	for _, tc := range flatCases() {
		for _, w := range []int{1, 2, 4} {
			pp := NewParallelPlanner(64, ParallelOptions{Workers: w, SpawnThreshold: 16})
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
	pp := NewParallelPlanner(256, ParallelOptions{Workers: 4, SpawnThreshold: 16})
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
	pp := NewParallelPlanner(4096, ParallelOptions{Workers: 2, SpawnThreshold: 64})
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

// TestParallelPlannerMetrics checks the counters move and the
// sequential-fallback path is taken where documented.
func TestParallelPlannerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	pp := NewParallelPlanner(1024, ParallelOptions{Workers: 2, SpawnThreshold: 16, Metrics: reg})
	k := bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 3)
	var plan Plan
	if err := pp.BAInto(&plan, k, root, 1024); err != nil {
		t.Fatal(err)
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
	if got := reg.Counter(mPPlanSeqFalls).Value(); got == 0 {
		t.Fatal("HF did not record a sequential fallback")
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
	pp := NewParallelPlanner(256, ParallelOptions{Workers: 3, SpawnThreshold: 16})
	if got := pp.Options().Workers; got != 3 {
		t.Fatalf("Options().Workers = %d, want 3", got)
	}
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
	if pp.Footprint() <= 0 {
		t.Fatal("Footprint must count worker arenas retained after planning")
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
	pp := NewParallelPlanner(4096, ParallelOptions{Workers: 2, SpawnThreshold: 16})
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
