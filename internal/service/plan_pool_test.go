package service

import (
	"cmp"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

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
	// must also be dropped — Footprint sees the arena, stack and queue.
	// This one's PHF arena alone is over the cap.
	fat := &plannerScratch{pl: bisectlb.NewPlanner(maxPooledFootprint/int(unsafe.Sizeof(bisectlb.FlatNode{})) + 1)}
	if fat.pl.Footprint() <= maxPooledFootprint {
		t.Fatalf("test setup: footprint %d not above cap %d", fat.pl.Footprint(), maxPooledFootprint)
	}
	putPlannerScratch(reg, fat)
	if got := reg.Counter(mPlannerPoolDrops).Value(); got != 2 {
		t.Fatalf("drops = %d after oversized planner Put, want 2", got)
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

	// A planner with workers retains the most: HF and PHF grow its own
	// buffers, and BA and BA-HF fan out and grow every worker's. After
	// all four at N = maxPooledPartsCap it still stays pooled; twice
	// that N is dropped.
	specs := []ProblemSpec{
		{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: 7},
		{Family: "list", Elems: 1 << 22, SplitAlpha: 0.3, Seed: 5},
	}
	for _, w := range []int{2, 8} {
		for _, spec := range specs {
			req := &BalanceRequest{Spec: spec}
			root, k, err := flatInputs(req)
			if err != nil {
				t.Fatal(err)
			}
			plan := func(sc *plannerScratch, n int, algs ...bisectlb.Algorithm) {
				t.Helper()
				sizeParts(&sc.plan, n)
				for _, alg := range algs {
					cfg := bisectlb.Config{Algorithm: alg, Alpha: 0.1}
					if err := bisectlb.BalanceInto(&sc.plan, sc.pl, k, root, n, cfg); err != nil {
						t.Fatal(err)
					}
				}
			}
			reg := obs.NewRegistry()
			sc := &plannerScratch{pl: bisectlb.NewParallelPlanner(0, bisectlb.ParallelOptions{Workers: w})}
			plan(sc, maxPooledPartsCap, bisectlb.HFAlgorithm, bisectlb.PHFAlgorithm, bisectlb.BAAlgorithm, bisectlb.BAHFAlgorithm)
			if !sc.pl.FannedOut() {
				t.Fatalf("%s w=%d: BA-HF at N = %d did not fan out", spec.Family, w, maxPooledPartsCap)
			}
			fp := sc.pl.Footprint()
			putPlannerScratch(reg, sc)
			if got := reg.Counter(mPlannerPoolDrops).Value(); got != 0 {
				t.Fatalf("%s w=%d: planner holding %d B after all four algorithms at N = %d dropped (cap %d)",
					spec.Family, w, fp, maxPooledPartsCap, maxPooledFootprint)
			}
			sc = &plannerScratch{pl: bisectlb.NewParallelPlanner(0, bisectlb.ParallelOptions{Workers: w})}
			plan(sc, 2*maxPooledPartsCap, bisectlb.BAAlgorithm)
			putPlannerScratch(reg, sc)
			if got := reg.Counter(mPlannerPoolDrops).Value(); got != 1 {
				t.Fatalf("%s w=%d: drops = %d after BA at N = %d, want 1", spec.Family, w, got, 2*maxPooledPartsCap)
			}
		}
	}

	// A 2^16 rebalance keeps its delta scratch, with workers, after
	// patches and full replans under every algorithm.
	dsc := &deltaScratch{dp: bisectlb.NewParallelDeltaPlanner(0, bisectlb.ParallelOptions{Workers: 4})}
	sizePatchParts(&dsc.pp, maxPooledPartsCap)
	root, k, err := bisectlb.NewSyntheticFlat(1, 0.1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	fannedRepair := false
	for _, alg := range []bisectlb.Algorithm{bisectlb.HFAlgorithm, bisectlb.PHFAlgorithm, bisectlb.BAAlgorithm, bisectlb.BAHFAlgorithm} {
		var prior bisectlb.Plan
		cfg := bisectlb.Config{Algorithm: alg, Alpha: 0.1}
		if err := bisectlb.BalanceInto(&prior, bisectlb.NewPlanner(0), k, root, maxPooledPartsCap, cfg); err != nil {
			t.Fatal(err)
		}
		// Drift the 64 heaviest parts tenfold.
		heavy := append([]bisectlb.FlatPart(nil), prior.Parts...)
		slices.SortFunc(heavy, func(a, b bisectlb.FlatPart) int { return cmp.Compare(b.Node.Weight, a.Node.Weight) })
		var deltas []bisectlb.WeightDelta
		for _, pt := range heavy[:64] {
			deltas = append(deltas, bisectlb.WeightDelta{ID: pt.Node.ID, Factor: 10})
		}
		for _, want := range []bisectlb.PatchOutcome{bisectlb.PatchPatched, bisectlb.PatchFullReplan} {
			d := deltas
			if want == bisectlb.PatchFullReplan {
				// One part at 10⁶× carries nearly all the drifted
				// weight, as in the X14 cliff cell.
				d = []bisectlb.WeightDelta{{ID: heavy[0].Node.ID, Factor: 1e6}}
			}
			_, st, err := dsc.dp.PatchInto(&dsc.pp, k, root, &prior, d, bisectlb.PatchOptions{Alpha: 0.1, Kappa: 1})
			if err != nil {
				t.Fatal(err)
			}
			if st.Outcome != want {
				t.Fatalf("%v: outcome %v, want %v", alg, st.Outcome, want)
			}
			fannedRepair = fannedRepair || st.Parallel
		}
	}
	if !fannedRepair {
		t.Fatal("no 2^16 repair fanned out")
	}
	fp := dsc.dp.Footprint()
	dreg := obs.NewRegistry()
	putDeltaScratch(dreg, dsc)
	if got := dreg.Counter(mPlannerPoolDrops).Value(); got != 0 {
		t.Fatalf("delta scratch holding %d B after 2^16 rebalances dropped (cap %d)", fp, maxPooledDeltaFootprint)
	}
}

// TestComputePlanFlatParallelRouting checks the fan-out cutoff: a BA
// request at N = 2^15 fans out across the pooled planner's workers
// (counted by service.planner_pool.parallel_plans) and serves the
// identical plan a one-worker planner serves; a request below 2^15
// plans on the calling goroutine.
func TestComputePlanFlatParallelRouting(t *testing.T) {
	const cutoff = 1 << 15 // internal/core's fan-out cutoff
	wantFanned := int64(1)
	if runtime.GOMAXPROCS(0) < 2 {
		wantFanned = 0 // the pooled planners have one worker
	}
	// Plan on a pool of New's scratches only: scratches other tests
	// returned to the shared pool may have other worker counts.
	defer func(p *sync.Pool) { plannerPool = p }(plannerPool)
	plannerPool = &sync.Pool{New: newPlannerScratch}
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

	smallPlan, smallReg := run(t, cutoff/2)
	if got := smallReg.Counter(mPlannerPoolParallel).Value(); got != 0 {
		t.Fatalf("small request took the parallel path (%d plans)", got)
	}
	if len(smallPlan.Parts) == 0 {
		t.Fatal("small request produced no parts")
	}

	bigPlan, bigReg := run(t, cutoff)
	if got := bigReg.Counter(mPlannerPoolParallel).Value(); got != wantFanned {
		t.Fatalf("parallel_plans = %d for N=%d, want %d", got, cutoff, wantFanned)
	}

	// The parallel path must serve the byte-identical plan the sequential
	// planner produces for the same request.
	req := &BalanceRequest{Spec: spec, N: cutoff, Algorithm: "BA"}
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
