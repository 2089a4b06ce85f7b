package loadgen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bisectlb/internal/obs"
	"bisectlb/internal/service"
)

// sloStudy is the JSON section recorded under "slo" in
// BENCH_service.json.
type sloStudy struct {
	Seed            uint64         `json:"seed"`
	ComputeMeanNs   float64        `json:"compute_mean_ns"`
	CapacityRPS     float64        `json:"capacity_rps"`
	Overload        overloadResult `json:"overload"`
	Tenants         tenantResult   `json:"tenants"`
	Restart         restartResult  `json:"restart"`
	AllCriteriaPass bool           `json:"all_criteria_pass"`
}

type overloadResult struct {
	TargetP99Ns     int64   `json:"target_p99_ns"`
	OfferedRPS      int     `json:"offered_rps"`
	OK              int64   `json:"ok"`
	Shed429         int64   `json:"shed_429"`
	ShedSLO         int64   `json:"server_slo_shed"`
	ShedQueue       int64   `json:"server_queue_full"`
	Rejected503     int64   `json:"rejected_503"`
	GoodputRPS      float64 `json:"goodput_rps"`
	AdmittedP99     int64   `json:"admitted_p99_ns"`
	UncontrolledP99 int64   `json:"uncontrolled_p99_ns"`
	P99OverSLO      float64 `json:"p99_over_slo"`
	GoodputFrac     float64 `json:"goodput_over_capacity"`
	CriteriaPass    bool    `json:"criteria_pass"`
}

type tenantResult struct {
	PoliteTenants    int     `json:"polite_tenants"`
	PoliteRPS        int     `json:"polite_rps_each"`
	HogRPS           int     `json:"hog_rps"`
	TenantRate       float64 `json:"tenant_rate"`
	BaselinePoliteOK int64   `json:"baseline_polite_ok"`
	PoliteOK         int64   `json:"polite_ok_with_hog"`
	HogOK            int64   `json:"hog_ok"`
	PoliteRetention  float64 `json:"polite_retention"`
	CriteriaPass     bool    `json:"criteria_pass"`
}

type restartResult struct {
	PreHitRate    float64 `json:"pre_hit_rate"`
	SnapshotPlans int     `json:"snapshot_plans"`
	RestoredPlans int     `json:"restored_plans"`
	PostHitRate   float64 `json:"post_hit_rate"`
	HitRateDelta  float64 `json:"hit_rate_delta"`
	CriteriaPass  bool    `json:"criteria_pass"`
}

// overloadN is the processor count of the overload body: large, so one
// request costs tens of milliseconds and the service time dwarfs the
// scheduling noise of the co-located generator.
var overloadN = 65536

// overloadBody is the compute-heavy request the overload and calibration
// phases use; distinct seeds defeat any caching so every admission costs
// a full plan.
func overloadBody(seed int) string {
	return fmt.Sprintf(
		`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":%d,"algorithm":"HF"}`, seed, overloadN)
}

// calibrate times sequential requests of the overload body against an
// uncached single worker: the mean end-to-end cost of one admitted
// request, and the implied plans/sec of `workers` workers.
func (d *Driver) calibrate(workers int) (meanNs float64, capacityRPS float64, err error) {
	srv, url, err := startServer(service.Config{Workers: 1, CacheCapacity: -1})
	if err != nil {
		return 0, 0, err
	}
	defer shutdownServer(srv)
	const warm, timed = 5, 30
	var start time.Time
	for i := 0; i < warm+timed; i++ {
		if i == warm {
			start = time.Now()
		}
		if err := d.postJSON(url, "/v1/balance", overloadBody(i), nil); err != nil {
			return 0, 0, fmt.Errorf("calibration request %d: %w", i, err)
		}
	}
	meanNs = float64(time.Since(start).Nanoseconds()) / timed
	return meanNs, float64(workers) * 1e9 / meanNs, nil
}

// driveServer starts srv on loopback, drives it and returns the run's
// stats with the server's final metrics; srv is shut down after.
func (d *Driver) driveServer(srv *service.Server, l Load, next func(int) Shot) (*Stats, obs.Snapshot, error) {
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, obs.Snapshot{}, err
	}
	defer shutdownServer(srv)
	url := "http://" + addr.String()
	l.Targets = []string{url}
	st := d.Drive(l, next)
	sn, err := d.fetchMetrics(url)
	return st, sn, err
}

// runSLO is experiment X11 (EXPERIMENTS.md) on in-process servers; each
// sub-study has its acceptance criterion:
//
//	overload  2× calibrated capacity under a p99 target: admitted p99
//	          ≤ 1.5× the target, goodput ≥ 80% of capacity
//	tenants   a hog at 10× its share next to polite tenants: polite
//	          goodput ≥ 90% of the hog-free baseline
//	restart   snapshot, shutdown and restore mid-sweep: hit rate within
//	          10 points of the pre-restart run
//
// A 429 is never retried here: a shed is the admission controller's
// answer, and the study counts it.
func runSLO(d *Driver, o Options) (outcome, error) {
	// One worker: the study boxes share CPUs with the generator, and a
	// single compute lane makes capacity, queueing delay and the SLO
	// target all functions of one calibrated number.
	const workers = 1
	var b strings.Builder
	fmt.Fprintf(&b, "X11 — SLO-driven overload protection, tenant isolation, warm restarts\n")
	fmt.Fprintf(&b, "in-process servers, %d workers, mix seed %d, %v per phase\n\n", workers, o.Seed, o.Duration)

	meanNs, capacity, err := d.calibrate(workers)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(&b, "calibration: mean service time %.2fms → capacity ≈ %.0f plans/s on %d worker(s)\n\n",
		meanNs/1e6, capacity, workers)

	study := &sloStudy{Seed: o.Seed, ComputeMeanNs: meanNs, CapacityRPS: capacity}

	// ── overload ─────────────────────────────────────────────────────
	// Offer 2× capacity with a target p99 of 8× the mean service time,
	// rounded up to the bucket bound the controller enforces. The queue
	// holds ~0.85 targets of service time, so its queue_full backstop
	// caps the wait near the target; the SLO controller (25ms ticks) sheds
	// on top when the windowed admitted p99 breaches it (EXPERIMENTS.md
	// X11). Stats start after a warmup that covers the controller's
	// convergence: its window holds no evidence until the first admitted
	// requests complete.
	target := time.Duration(obs.QuantizeUp(int64(8 * meanNs)))
	queueDepth := int(0.85 * float64(target) / meanNs)
	offered := max(int(2*capacity), 20)
	overload := Load{RPS: offered, Warmup: 1500 * time.Millisecond, Duration: o.Duration}
	next := func(i int) Shot { return Shot{Body: overloadBody(i)} }
	// Contrast: a deep queue and no SLO target. Every request that fits
	// the queue is admitted, and the backlog pushes the admitted p99 to
	// many multiples of the target.
	stU, _, err := d.driveServer(service.New(service.Config{
		Workers:       workers,
		QueueDepth:    8 * queueDepth,
		CacheCapacity: -1,
	}), overload, next)
	if err != nil {
		return outcome{}, err
	}
	uncontrolledP99 := stU.latency(isOK).P99
	// Controlled: bounded queue + SLO controller.
	st, sn, err := d.driveServer(service.New(service.Config{
		Workers:       workers,
		QueueDepth:    queueDepth,
		CacheCapacity: -1,
		TargetP99:     target,
		SLOTick:       25 * time.Millisecond,
		SLOEpochs:     60,
	}), overload, next)
	if err != nil {
		return outcome{}, err
	}
	// Shed composition from the server's own counters (whole run,
	// including warmup): slo_shed > 0 is what distinguishes the
	// controller from the queue_full backstop.
	p99 := st.latency(isOK).P99
	ov := overloadResult{
		TargetP99Ns:     int64(target),
		OfferedRPS:      offered,
		OK:              st.OK,
		Shed429:         st.Rejected429,
		ShedSLO:         sn.Counters["service.rejected_slo_shed"],
		ShedQueue:       sn.Counters["service.rejected_queue_full"],
		Rejected503:     st.Rejected503,
		GoodputRPS:      float64(st.OK) / o.Duration.Seconds(),
		AdmittedP99:     p99,
		UncontrolledP99: uncontrolledP99,
		P99OverSLO:      float64(p99) / float64(target),
	}
	ov.GoodputFrac = ov.GoodputRPS / capacity
	ov.CriteriaPass = ov.P99OverSLO <= 1.5 && ov.GoodputFrac >= 0.8
	study.Overload = ov
	fmt.Fprintf(&b, "overload: offered %d rps (2× capacity), queue %d deep, target p99 %v\n",
		offered, queueDepth, target.Round(time.Millisecond))
	fmt.Fprintf(&b, "  uncontrolled contrast (queue %d, no target): admitted p99 %v = %.2f× target\n",
		8*queueDepth, time.Duration(uncontrolledP99).Round(time.Microsecond),
		float64(uncontrolledP99)/float64(target))
	fmt.Fprintf(&b, "  ok %d  shed(429) %d  503 %d  goodput %.0f rps (%.0f%% of capacity)\n",
		ov.OK, ov.Shed429, ov.Rejected503, ov.GoodputRPS, 100*ov.GoodputFrac)
	fmt.Fprintf(&b, "  server sheds over the whole run: slo_shed %d, queue_full %d\n", ov.ShedSLO, ov.ShedQueue)
	fmt.Fprintf(&b, "  admitted p99 %v = %.2f× target  →  %s\n\n",
		time.Duration(p99).Round(time.Microsecond), ov.P99OverSLO, passFail[ov.CriteriaPass])

	// ── tenant isolation ─────────────────────────────────────────────
	// N polite tenants inside their rate next to one hog at 10× its
	// share. The polite baseline is the same polite traffic with no hog.
	const (
		politeN    = 4
		politeRPS  = 30
		hogRPS     = 300
		tenantRate = 60.0
	)
	tenantCfg := service.Config{
		Workers:          workers,
		CacheCapacity:    -1,
		TenantRate:       tenantRate,
		TenantQueueShare: 0.5,
	}
	polite := func(i int) Shot {
		return Shot{Tenant: fmt.Sprintf("polite%d", i%politeN), Body: tenantBody(i)}
	}
	base, _, err := d.driveServer(service.New(tenantCfg), Load{RPS: politeN * politeRPS, Duration: o.Duration}, polite)
	if err != nil {
		return outcome{}, err
	}
	// With the hog: interleave so each second carries politeN×politeRPS
	// polite requests and hogRPS hog requests.
	totalRPS := politeN*politeRPS + hogRPS
	hogEvery := float64(totalRPS) / float64(hogRPS)
	withHog, _, err := d.driveServer(service.New(tenantCfg), Load{RPS: totalRPS, Duration: o.Duration}, func(i int) Shot {
		if int(float64(i)/hogEvery) != int(float64(i+1)/hogEvery) {
			return Shot{Tenant: "hog", Body: tenantBody(i)}
		}
		return polite(i)
	})
	if err != nil {
		return outcome{}, err
	}
	politeOK := withHog.count(func(x sample) bool { return isOK(x) && strings.HasPrefix(x.tenant, "polite") })
	tr := tenantResult{
		PoliteTenants:    politeN,
		PoliteRPS:        politeRPS,
		HogRPS:           hogRPS,
		TenantRate:       tenantRate,
		BaselinePoliteOK: base.OK,
		PoliteOK:         politeOK,
		HogOK:            withHog.count(func(x sample) bool { return isOK(x) && x.tenant == "hog" }),
		PoliteRetention:  ratio(float64(politeOK), float64(base.OK)),
	}
	tr.CriteriaPass = tr.PoliteRetention >= 0.9
	study.Tenants = tr
	fmt.Fprintf(&b, "tenants: %d polite × %d rps + hog at %d rps (rate limit %.0f/s, queue share 0.5)\n",
		politeN, politeRPS, hogRPS, tenantRate)
	fmt.Fprintf(&b, "  polite ok %d (baseline %d) → retention %.1f%%  hog ok %d (capped by bucket)\n",
		politeOK, base.OK, 100*tr.PoliteRetention, tr.HogOK)
	fmt.Fprintf(&b, "  →  %s\n\n", passFail[tr.CriteriaPass])

	// ── warm restart ─────────────────────────────────────────────────
	// Warm a cached server with a bounded spec pool, measure the hit
	// rate, snapshot + shut down mid-sweep, restore into a fresh server
	// and replay the same mix: the hit rate must survive the restart.
	rr, err := d.restart(o, workers)
	if err != nil {
		return outcome{}, err
	}
	study.Restart = rr
	fmt.Fprintf(&b, "restart: hit rate %.1f%% → snapshot %d plans → restart → hit rate %.1f%% (Δ %+.1f points)\n",
		100*rr.PreHitRate, rr.SnapshotPlans, 100*rr.PostHitRate, 100*rr.HitRateDelta)
	fmt.Fprintf(&b, "  →  %s\n", passFail[rr.CriteriaPass])

	study.AllCriteriaPass = ov.CriteriaPass && tr.CriteriaPass && rr.CriteriaPass
	return outcome{text: b.String(), section: study, pass: study.AllCriteriaPass}, nil
}

func tenantBody(i int) string {
	return fmt.Sprintf(
		`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":1024,"algorithm":"HF"}`, i)
}

// restart is the X11 warm-restart phase.
func (d *Driver) restart(o Options, workers int) (restartResult, error) {
	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("lbload-slo-%d.snapshot", os.Getpid()))
	defer os.Remove(snapPath)
	cfg := service.Config{Workers: workers, CacheCapacity: 1024}
	replay := Load{RPS: 200, Duration: o.Duration}
	bodies := newMix(o.Seed).bodies
	next := func(i int) Shot { return Shot{Body: bodies[i%len(bodies)]} }
	srv := service.New(cfg)
	pre, _, err := d.driveServer(srv, replay, next)
	if err != nil {
		return restartResult{}, err
	}
	saved, err := srv.SaveCacheSnapshot(snapPath)
	if err != nil {
		return restartResult{}, fmt.Errorf("snapshot: %w", err)
	}
	srv = service.New(cfg)
	restored, err := srv.LoadCacheSnapshot(snapPath)
	if err != nil {
		return restartResult{}, fmt.Errorf("restore: %w", err)
	}
	post, _, err := d.driveServer(srv, replay, next)
	if err != nil {
		return restartResult{}, err
	}
	rr := restartResult{
		PreHitRate:    ratio(float64(pre.count(isHit)), float64(pre.OK)),
		SnapshotPlans: saved,
		RestoredPlans: restored,
		PostHitRate:   ratio(float64(post.count(isHit)), float64(post.OK)),
	}
	rr.HitRateDelta = rr.PostHitRate - rr.PreHitRate
	rr.CriteriaPass = rr.HitRateDelta >= -0.10
	return rr, nil
}
