package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"bisectlb"
	"bisectlb/internal/service"
)

// The traced run times each layer from outside, at the public boundary
// the benchmark can wrap: Server.Handler() for the service, the Kernel
// interface for flat planning and the Problem interface for interface
// planning. Counts and timings inside the service come from /metricz
// counter and sum/count deltas.

// reconcileTol is the share of a parent stage by which its derived child
// stage may come out negative before the stage sums count as not
// reconciling, which means a layer boundary is missing or timed twice.
const reconcileTol = 0.02

// reconciler collects the stage-sum checks of a traced run.
type reconciler struct{ failed bool }

// check records one reconciliation; a false ok fails the run.
func (r *reconciler) check(stage string, ok bool, format string, args ...any) {
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
		r.failed = true
	}
	say("reconcile %s: %s: %s", stage, verdict, fmt.Sprintf(format, args...))
}

// span accumulates the count and total nanoseconds of a timed boundary.
type span struct{ n, ns atomic.Int64 }

func (s *span) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

func (s *span) meanMs() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(n) / 1e6
}

// tracedHandler times every request through the service handler while
// on is set, in total and per family named by familyHeader.
type tracedHandler struct {
	next   http.Handler
	on     atomic.Bool
	total  span
	family map[string]*span
}

func newTracedHandler(next http.Handler) *tracedHandler {
	t := &tracedHandler{next: next, family: make(map[string]*span)}
	for _, f := range append(append([]string(nil), families...), "rebalance") {
		t.family[f] = &span{}
	}
	return t
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(t0)
	t.total.add(d)
	if s := t.family[r.Header.Get(familyHeader)]; s != nil {
		s.add(d)
	}
}

// layers adds the transport and service metrics of the traced window w,
// whose /metricz change is d, and reconciles their stage sums.
func (t *tracedHandler) layers(m metrics, w *window, d delta, rc *reconciler) {
	n := float64(t.total.n.Load())
	client := w.meanMs()
	handler := t.total.meanMs()
	m["transport.client_ms"] = client
	m["transport.residual_ms"] = client - handler
	m["service.handler_ms"] = handler
	for f, s := range t.family {
		m["service.handler_ms."+f] = s.meanMs()
	}
	computeNs, _ := d.sumNs("service.compute_ns")
	patchNs, _ := d.sumNs("service.rebalance.patch_ns")
	noncompute := handler - (computeNs+patchNs)/n/1e6
	m["service.compute_ms"] = d.meanMs("service.compute_ns")
	m["service.noncompute_ms"] = noncompute
	m["service.cache_evictions_per_op"] = d.counter("service.cache_evictions") / n
	m["service.plans_computed_per_op"] = d.counter("service.plans_computed") / n
	m["service.rebalance.patch_ms"] = d.meanMs("service.rebalance.patch_ns")
	if reb := d.counter("service.rebalance.requests"); reb > 0 {
		m["service.rebalance.prior_computed_per_op"] = d.counter("service.rebalance.prior_computed") / reb
	}
	full := d.counter("service.rebalance.full_replans")
	if outcomes := full + d.counter("service.rebalance.noop") + d.counter("service.rebalance.patched"); outcomes > 0 {
		m["service.rebalance.full_replan_ratio"] = full / outcomes
	}

	rc.check("service.count", int64(n) == w.attempted && d.counter("service.requests") == n,
		"handler saw %.0f requests, service counted %.0f, clients sent %d", n, d.counter("service.requests"), w.attempted)
	rc.check("transport", client-handler >= -reconcileTol*client,
		"client %.4f ms = residual %.4f ms + handler %.4f ms", client, client-handler, handler)
	inner := d.meanMs("service.latency_ns")
	rc.check("service.handler", math.Abs(handler-inner) <= reconcileTol*handler+0.02,
		"wrapped handler %.4f ms vs service's own latency_ns %.4f ms", handler, inner)
	rc.check("service.compute", noncompute >= -reconcileTol*handler,
		"handler %.4f ms = compute %.4f ms + noncompute %.4f ms", handler, handler-noncompute, noncompute)
}

// kernelStats counts and samples the splits of traced kernels. Splits
// are counted exactly in per-shard counters, so the parallel planner's
// workers rarely touch the same cache line; one split in 64, chosen by a
// hash of the node ID, is timed.
type kernelStats struct {
	splits [8]struct {
		n atomic.Int64
		_ [56]byte
	}
	sampled   atomic.Int64
	sampledNs atomic.Int64
}

// total is the exact split count.
func (s *kernelStats) total() int64 {
	var t int64
	for i := range s.splits {
		t += s.splits[i].n.Load()
	}
	return t
}

// estimateNs extrapolates kernel time from the timed sample, removing
// the timer's own cost from each sampled span.
func (s *kernelStats) estimateNs(overhead time.Duration) float64 {
	n := s.sampled.Load()
	if n == 0 {
		return 0
	}
	per := float64(s.sampledNs.Load())/float64(n) - float64(overhead)
	if per < 0 {
		per = 0
	}
	return per * float64(s.total())
}

// tracedKernel wraps a bisectlb.Kernel with kernelStats. It does not
// allocate, so the planner's zero-allocation path stays intact.
type tracedKernel struct {
	k  bisectlb.Kernel
	st *kernelStats
}

func (t *tracedKernel) Split(n bisectlb.FlatNode) (bisectlb.FlatNode, bisectlb.FlatNode) {
	t.st.splits[n.ID&7].n.Add(1)
	if (n.ID*0x9E3779B97F4A7C15)>>58 != 0 {
		return t.k.Split(n)
	}
	t0 := time.Now()
	h, l := t.k.Split(n)
	t.st.sampledNs.Add(int64(time.Since(t0)))
	t.st.sampled.Add(1)
	return h, l
}

// moduleStat accumulates the Bisect calls of one substrate module. The
// interface replay runs on one goroutine, so plain fields suffice.
type moduleStat struct {
	calls int64
	ns    int64
}

// tracedProblem wraps a bisectlb.Problem, timing every Bisect and
// wrapping both children so the whole bisection tree is traced.
type tracedProblem struct {
	bisectlb.Problem
	st *moduleStat
}

func (p *tracedProblem) Bisect() (bisectlb.Problem, bisectlb.Problem) {
	t0 := time.Now()
	a, b := p.Problem.Bisect()
	p.st.ns += int64(time.Since(t0))
	p.st.calls++
	return &tracedProblem{a, p.st}, &tracedProblem{b, p.st}
}

// moduleOf names the repository module that bisects a family's problems.
var moduleOf = map[string]string{
	"fem":        "femtree",
	"quadrature": "quadrature",
	"searchtree": "searchtree",
	"graph":      "graph",
	"spatial":    "spatial",
}

// ifaceReplay plans interface-family balance requests through
// bisectlb.Balance on the calling goroutine, twice: once bare, counting
// allocations, and once with every Problem wrapped, timing each Bisect
// per module. Problem construction stays outside both measurements.
func ifaceReplay(reqs []service.BalanceRequest, m metrics, rc *reconciler) error {
	if len(reqs) == 0 {
		return fmt.Errorf("interface replay has no specs")
	}
	build := func() ([]bisectlb.Problem, []bisectlb.Config, error) {
		ps := make([]bisectlb.Problem, len(reqs))
		cfgs := make([]bisectlb.Config, len(reqs))
		for i := range reqs {
			p, err := buildProblem(reqs[i].Spec)
			if err != nil {
				return nil, nil, err
			}
			cfg, err := configOf(&reqs[i])
			if err != nil {
				return nil, nil, err
			}
			ps[i], cfgs[i] = p, cfg
		}
		return ps, cfgs, nil
	}

	ps, cfgs, err := build()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, p := range ps {
		if _, err := bisectlb.Balance(p, reqs[i].N, cfgs[i]); err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&m1)

	if ps, cfgs, err = build(); err != nil {
		return err
	}
	stats := make(map[string]*moduleStat)
	for _, mod := range moduleOf {
		stats[mod] = &moduleStat{}
	}
	plans := make(map[string]int64)
	var planNs, bisections int64
	for i, p := range ps {
		mod := moduleOf[reqs[i].Spec.Family]
		t0 := time.Now()
		res, err := bisectlb.Balance(&tracedProblem{p, stats[mod]}, reqs[i].N, cfgs[i])
		planNs += int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("traced replay %d: %w", i, err)
		}
		plans[mod]++
		bisections += int64(res.Bisections)
	}

	n := float64(len(ps))
	var calls, bisectNs int64
	for mod, st := range stats {
		calls += st.calls
		bisectNs += st.ns
		if plans[mod] > 0 {
			m[mod+".bisect_calls_per_plan"] = float64(st.calls) / float64(plans[mod])
			m[mod+".bisect_ms_per_plan"] = float64(st.ns) / 1e6 / float64(plans[mod])
		}
	}
	planMs := float64(planNs) / 1e6 / n
	bookkeeping := float64(planNs-bisectNs) / 1e6 / n
	m["core.iface.plan_ms_per_plan"] = planMs
	m["core.iface.bookkeeping_ms_per_plan"] = bookkeeping
	m["core.iface.allocs_per_plan"] = float64(m1.Mallocs-m0.Mallocs) / n
	rc.check("core.iface.count", calls == bisections,
		"wrapped Bisect calls %d, plans report %d bisections", calls, bisections)
	rc.check("core.iface", bookkeeping >= -reconcileTol*planMs,
		"plan %.4f ms = bisect %.4f ms + bookkeeping %.4f ms", planMs, planMs-bookkeeping, bookkeeping)
	return nil
}
