package service

import (
	"encoding/json"
	"testing"

	"bisectlb"
	"bisectlb/internal/obs"
)

// TestPlannerPoolRetentionCaps pins the pool-stewardship bugfix: a
// scratch ballooned by one oversized request must be dropped on Put
// (counted by service.planner_pool.drops) instead of pinning its
// buffers in the pool for the process lifetime, while normally sized
// scratches keep being returned.
func TestPlannerPoolRetentionCaps(t *testing.T) {
	reg := obs.NewRegistry()

	small := &plannerScratch{pl: bisectlb.NewPlanner(64)}
	putPlannerScratch(reg, small)
	if got := reg.Counter(mPlannerPoolPuts).Value(); got != 1 {
		t.Fatalf("puts = %d after small Put, want 1", got)
	}
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 0 {
		t.Fatalf("drops = %d after small Put, want 0", got)
	}

	big := &plannerScratch{pl: bisectlb.NewPlanner(64)}
	big.plan.Parts = make([]bisectlb.FlatPart, maxPooledPartsCap+1)
	putPlannerScratch(reg, big)
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 1 {
		t.Fatalf("drops = %d after oversized parts Put, want 1", got)
	}

	// A planner whose internal buffers (not the parts slice) ballooned
	// must also be dropped — Footprint sees the arena, stack and queues.
	fat := &plannerScratch{pl: bisectlb.NewPlanner(maxPooledFootprint / 64)}
	if fat.pl.Footprint() <= maxPooledFootprint {
		t.Fatalf("test setup: footprint %d not above cap %d", fat.pl.Footprint(), maxPooledFootprint)
	}
	putPlannerScratch(reg, fat)
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 2 {
		t.Fatalf("drops = %d after oversized planner Put, want 2", got)
	}

	// Parallel pool: same contract.
	pbig := &parallelScratch{pp: bisectlb.NewParallelPlanner(0, bisectlb.ParallelOptions{Workers: 2})}
	pbig.plan.Parts = make([]bisectlb.FlatPart, maxPooledPartsCap+1)
	putParallelScratch(reg, pbig)
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 3 {
		t.Fatalf("drops = %d after oversized parallel Put, want 3", got)
	}

	// The two caps must agree: the largest admitted request, HF and PHF
	// at N = maxPooledPartsCap through the flat path with the bucket
	// queue and the ID sort's scratch, keeps its planner; twice that N is
	// dropped.
	flat := func(t *testing.T, reg *obs.Registry, alg string, n int) {
		t.Helper()
		req := &BalanceRequest{Spec: ProblemSpec{Family: "list", Elems: 1 << 22, SplitAlpha: 0.3, Seed: 5}, N: n, Algorithm: alg, Alpha: 0.3}
		req.normalize()
		a, err := bisectlb.ParseAlgorithm(req.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		root, k, ok := flatInputs(req)
		if !ok {
			t.Fatal("flatInputs rejected a flat family")
		}
		if _, err := computePlanFlat(req, a, "sig", reg, root, k); err != nil {
			t.Fatal(err)
		}
	}
	kept := obs.NewRegistry()
	for _, alg := range []string{"HF", "PHF", "HF"} {
		flat(t, kept, alg, maxPooledPartsCap)
	}
	if got := kept.Counter(mPlannerPoolDrops).Value(); got != 0 {
		t.Fatalf("drops = %d after HF/PHF at N = %d, want 0", got, maxPooledPartsCap)
	}
	flat(t, kept, "HF", 2*maxPooledPartsCap)
	if got := kept.Counter(mPlannerPoolDrops).Value(); got != 1 {
		t.Fatalf("drops = %d after HF at N = %d, want 1", got, 2*maxPooledPartsCap)
	}
}

// TestComputePlanFlatParallelRouting checks the N cutoff: a large BA
// request plans through the multicore planner (counted by
// service.planner_pool.parallel_plans) and serves the identical plan the
// sequential path serves; a small request stays sequential.
func TestComputePlanFlatParallelRouting(t *testing.T) {
	spec := ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.15, Hi: 0.5, Seed: 21}
	run := func(t *testing.T, n int) (*Plan, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		req := &BalanceRequest{Spec: spec, N: n, Algorithm: "BA"}
		req.normalize()
		alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		root, k, ok := flatInputs(req)
		if !ok {
			t.Fatal("flatInputs rejected a flat family")
		}
		plan, err := computePlanFlat(req, alg, "sig", reg, root, k)
		if err != nil {
			t.Fatal(err)
		}
		return plan, reg
	}

	smallPlan, smallReg := run(t, parallelNCutoff/2)
	if got := smallReg.Counter(mPlannerPoolParallel).Value(); got != 0 {
		t.Fatalf("small request took the parallel path (%d plans)", got)
	}
	if len(smallPlan.Parts) == 0 {
		t.Fatal("small request produced no parts")
	}

	bigPlan, bigReg := run(t, parallelNCutoff)
	if got := bigReg.Counter(mPlannerPoolParallel).Value(); got != 1 {
		t.Fatalf("parallel_plans = %d for N=%d, want 1", got, parallelNCutoff)
	}

	// The parallel path must serve the byte-identical plan the sequential
	// planner produces for the same request.
	req := &BalanceRequest{Spec: spec, N: parallelNCutoff, Algorithm: "BA"}
	req.normalize()
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	root, k, _ := flatInputs(req)
	pl := bisectlb.NewPlanner(req.N)
	var fp bisectlb.Plan
	if err := bisectlb.BalanceInto(&fp, pl, k, root, req.N, bisectlb.Config{Algorithm: alg}); err != nil {
		t.Fatal(err)
	}
	seqPlan := servePlan(&fp, req, alg, "sig")
	a, err := json.Marshal(bigPlan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(seqPlan)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("parallel-path plan diverged from sequential plan for the same request")
	}
}
