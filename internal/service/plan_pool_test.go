package service

import (
	"context"
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
		if _, err := computePlan(req, a, "sig", reg); err != nil {
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
		plan, err := computePlan(req, alg, "sig", reg)
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
	root, k, err := flatInputs(req)
	if err != nil {
		t.Fatal(err)
	}
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

// TestDeltaPoolRetentionCaps is TestPlannerPoolRetentionCaps for the
// delta pool: a patched rebalance of the largest admitted N holds a few
// more parts than N, and must still return its delta scratch to the
// pool under every algorithm, while an oversized parts buffer is
// dropped.
func TestDeltaPoolRetentionCaps(t *testing.T) {
	const n = maxPooledPartsCap
	for _, algName := range []string{"HF", "PHF", "BA", "BA-HF"} {
		reg := obs.NewRegistry()
		srv := New(Config{Registry: reg})
		base := BalanceRequest{Spec: ProblemSpec{Family: "uniform", Lo: 0.1, Hi: 0.5, Seed: 7}, N: n, Algorithm: algName, Alpha: 0.1}
		base.normalize()
		alg, err := bisectlb.ParseAlgorithm(base.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		baseKey := base.cacheKey()
		prior, err := computePlan(&base, alg, signature(baseKey), reg)
		if err != nil {
			t.Fatal(err)
		}
		srv.cache.Put(baseKey, prior)
		// Drift the eight heaviest parts tenfold.
		req := &RebalanceRequest{Spec: base.Spec, N: n, Algorithm: base.Algorithm, Alpha: base.Alpha}
		for len(req.Deltas) < 8 {
			best := -1
			for i, pt := range prior.Parts {
				if (best < 0 || pt.Weight > prior.Parts[best].Weight) && !drifted(req.Deltas, pt.ID) {
					best = i
				}
			}
			req.Deltas = append(req.Deltas, DriftDelta{ID: prior.Parts[best].ID, Factor: 10})
		}
		drops := reg.Counter(mPlannerPoolDrops).Value()
		plan, err := srv.computeRebalance(req, &base, alg, baseKey, baseKey+"|drift=test")
		if err != nil {
			t.Fatalf("%s: %v", algName, err)
		}
		if plan.Rebalance.Outcome != "patched" || len(plan.Parts) <= n {
			t.Fatalf("%s: outcome %q with %d parts; the case needs a patch holding more than %d parts",
				algName, plan.Rebalance.Outcome, len(plan.Parts), n)
		}
		if got := reg.Counter(mPlannerPoolDrops).Value() - drops; got != 0 {
			t.Fatalf("%s: patched rebalance at N = %d dropped %d scratches, want 0", algName, n, got)
		}
		srv.Shutdown(context.Background())
	}

	reg := obs.NewRegistry()
	big := &deltaScratch{dp: bisectlb.NewDeltaPlanner(0)}
	big.pp.Plan.Parts = make([]bisectlb.FlatPart, 0, maxPooledPatchParts+1)
	putDeltaScratch(reg, big)
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 1 {
		t.Fatalf("drops = %d after oversized delta Put, want 1", got)
	}
}

func drifted(deltas []DriftDelta, id uint64) bool {
	for _, d := range deltas {
		if d.ID == id {
			return true
		}
	}
	return false
}
