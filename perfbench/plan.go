package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"bisectlb"
	"bisectlb/internal/verify"
	"bisectlb/internal/xrand"
)

// plan-large: large-N planning through the root facade on one goroutine,
// routed the way lbserve routes it: the bucket queue at N ≥ 2^12 and the
// multicore planner for BA and BA-HF at N ≥ 2^15. Each cycle of 108 ops
// runs every kernel × algorithm at N = 2^14 five times and at 2^15 and
// 2^16 twice, in a seeded order. The seed draws the kernel instances.
const (
	bucketQueueN = 1 << 12
	parallelN    = 1 << 15
)

var (
	largeKernels = []string{"uniform", "fixed", "list"}
	largeAlgs    = []string{"HF", "PHF", "BA", "BA-HF"}
	// largeNs gives each N its share of a cycle. At these shares each
	// 2^16 configuration is about 2% of the ops, so p99 falls inside the
	// slowest configuration rather than on the edge between two.
	largeNs = []struct{ n, reps int }{{1 << 14, 5}, {1 << 15, 2}, {1 << 16, 2}}
)

// largeConfig is one kernel × algorithm × N of plan-large.
type largeConfig struct {
	name     string
	alg      string
	root     bisectlb.FlatNode
	k        bisectlb.Kernel
	traced   *tracedKernel
	n        int
	cfg      bisectlb.Config
	alpha    float64
	parallel bool
	// reps is how many times the configuration runs per cycle.
	reps int
}

// largePlanners are the reused planners and plan buffer of plan-large.
type largePlanners struct {
	pl   *bisectlb.Planner
	pp   *bisectlb.ParallelPlanner
	plan bisectlb.Plan
}

// newLargePlanners sizes the planners and the plan for the largest N up
// front. Grown by doubling instead, they leave garbage whose share still
// resident at the peak depends on when the concurrent GC runs, and the
// process's peak RSS wandered by a quarter between runs.
func newLargePlanners() *largePlanners {
	const n = 1 << 16
	lp := &largePlanners{pl: bisectlb.NewPlanner(n), pp: bisectlb.NewParallelPlanner(n, bisectlb.ParallelOptions{})}
	lp.plan.Parts = make([]bisectlb.FlatPart, 0, n)
	lp.pl.SetBucketQueue(true)
	lp.pp.SetBucketQueue(true)
	return lp
}

// run plans c with kernel k into lp.plan.
func (lp *largePlanners) run(c *largeConfig, k bisectlb.Kernel) error {
	if c.parallel {
		return bisectlb.ParallelBalanceInto(&lp.plan, lp.pp, k, c.root, c.n, c.cfg)
	}
	return bisectlb.BalanceInto(&lp.plan, lp.pl, k, c.root, c.n, c.cfg)
}

func largeConfigs(seed uint64, st *kernelStats) ([]largeConfig, error) {
	var cs []largeConfig
	for _, fam := range largeKernels {
		for _, alg := range largeAlgs {
			for _, ln := range largeNs {
				req := balanceRequest(fam, ln.n, alg, xrand.Mix(seed, uint64(len(cs))))
				root, k, _, err := flatInputs(req.Spec)
				if err != nil {
					return nil, err
				}
				cfg, err := configOf(&req)
				if err != nil {
					return nil, err
				}
				if ln.n < bucketQueueN {
					return nil, fmt.Errorf("plan-large N=%d is below the bucket-queue cutoff", ln.n)
				}
				cs = append(cs, largeConfig{
					name: fmt.Sprintf("%s/%s/%d", fam, alg, ln.n), alg: alg,
					root: root, k: k, traced: &tracedKernel{k: k, st: st},
					n: ln.n, cfg: cfg, alpha: req.Alpha,
					parallel: ln.n >= parallelN && (alg == "BA" || alg == "BA-HF"),
					reps:     ln.reps,
				})
			}
		}
	}
	return cs, nil
}

func runPlanLarge(o options) (*result, error) {
	var ks kernelStats
	configs, err := largeConfigs(o.seed, &ks)
	if err != nil {
		return nil, err
	}
	// slots lists the config index of each op of a cycle.
	var slots []int
	for c := range configs {
		for r := 0; r < configs[c].reps; r++ {
			slots = append(slots, c)
		}
	}

	// Set-up builds fresh planners and plans every configuration once, so
	// every buffer has reached its working size before the window.
	lp, setupS, err := medianSetUp(setUpReps, func() (*largePlanners, error) {
		lp := newLargePlanners()
		for c := range configs {
			if err := lp.run(&configs[c], configs[c].k); err != nil {
				return nil, fmt.Errorf("%s: %w", configs[c].name, err)
			}
		}
		return lp, nil
	}, func(*largePlanners) {})
	if err != nil {
		return nil, err
	}

	var (
		tracing   atomic.Bool
		cycle     = int64(-1)
		perm      []int
		groups    = make(map[string]*span)
		bisection int64
	)
	op := func(_ int, i int64) error {
		if c := i / int64(len(slots)); c != cycle {
			cycle, perm = c, xrand.New(xrand.Mix(o.seed, uint64(c))).Perm(len(slots))
		}
		c := &configs[slots[perm[i%int64(len(slots))]]]
		if !tracing.Load() {
			return lp.run(c, c.k)
		}
		t0 := time.Now()
		err := lp.run(c, c.traced)
		d := time.Since(t0)
		group := "core.planner.ms_per_plan." + c.alg
		if c.parallel {
			group = "core.pplanner.ms_per_plan." + c.alg
		}
		if groups[group] == nil {
			groups[group] = &span{}
		}
		groups[group].add(d)
		bisection += int64(lp.plan.Bisections)
		return err
	}

	runtime.GC()
	var next atomic.Int64
	var res result
	var rc reconciler
	if !o.trace {
		w := measure(1, &next, o.window(), 0, op)
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = w.attempted, w.failed
		ratios, bad := verifyLarge(configs, lp)
		res.Failed += bad
		if res.Metrics, err = endToEnd(&w, rss, setupS, geomean(ratios), res.Attempted, res.Failed); err != nil {
			return nil, err
		}
	} else {
		overhead := timerOverhead()
		w1 := measure(1, &next, o.window()/2, 0, op)
		tracing.Store(true)
		w2 := measure(1, &next, o.window()/2, 0, op)
		tracing.Store(false)
		res.Attempted, res.Failed = w1.attempted+w2.attempted, w1.failed+w2.failed
		_, bad := verifyLarge(configs, lp)
		res.Failed += bad

		m := metrics{}
		runtimeLayer(m, &w1)
		m["trace.overhead_ratio"] = w2.throughput() / w1.throughput()
		m["core.allocs_per_plan"] = float64(w1.mem1.Mallocs-w1.mem0.Mallocs) / float64(w1.ops())
		var calls, planNs int64
		for name, s := range groups {
			m[name] = s.meanMs()
			calls += s.n.Load()
			planNs += s.ns.Load()
		}
		planMs := float64(planNs) / 1e6 / float64(calls)
		kernelMs := ks.estimateNs(overhead) / 1e6 / float64(calls)
		m["core.plan_ms_per_plan"] = planMs
		m["bisect.kernel.splits_per_plan"] = float64(ks.total()) / float64(calls)
		m["bisect.kernel.ms_per_plan"] = kernelMs
		m["core.bookkeeping_ms_per_plan"] = planMs - kernelMs
		say("trace: timer overhead %v subtracted from each of %d sampled splits", overhead, ks.sampled.Load())
		rc.check("bisect.count", ks.total() == bisection,
			"wrapped kernel counted %d splits, plans report %d bisections", ks.total(), bisection)
		rc.check("core", planMs-kernelMs >= -reconcileTol*planMs,
			"plan %.4f ms = kernel %.4f ms + bookkeeping %.4f ms", planMs, kernelMs, planMs-kernelMs)
		if res.Metrics, err = finish(m, perLayerUnits); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && !rc.failed
	printMetrics(res.Metrics)
	return &res, nil
}

// verifyLarge re-plans every configuration with the window's planners
// and with a second planner set used only by this pass, and checks that
// the two plans are equal, structurally sound and within the paper's
// guarantee. It returns the plans' ratios and the number of
// configurations that failed.
func verifyLarge(configs []largeConfig, lp *largePlanners) ([]float64, int64) {
	var ratios []float64
	var failed int64
	fresh := newLargePlanners()
	for c := range configs {
		cfg := &configs[c]
		err := lp.run(cfg, cfg.k)
		if err == nil {
			err = fresh.run(cfg, cfg.k)
		}
		if err == nil {
			err = verify.CheckPlansEqual(&lp.plan, &fresh.plan)
		}
		if err == nil {
			err = verify.CheckPlan(&lp.plan, cfg.n, planTol)
		}
		if err == nil {
			err = verify.CheckPlanGuarantee(&lp.plan, cfg.alpha, kappaOr1(cfg.cfg.Kappa))
		}
		if err != nil {
			failed++
			say("verify: %s: %v", cfg.name, err)
			continue
		}
		ratios = append(ratios, lp.plan.Ratio)
	}
	say("verify: %d configurations checked, %d failed", len(configs), failed)
	return ratios, failed
}
