package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bisectlb/internal/obs"
)

func postBalance(t *testing.T, url string, body string) (*http.Response, BalanceResponse, errorBody) {
	t.Helper()
	resp, err := http.Post(url+"/v1/balance", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var ok BalanceResponse
	var bad errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decode OK body %q: %v", buf.String(), err)
		}
	} else {
		if err := json.Unmarshal(buf.Bytes(), &bad); err != nil {
			t.Fatalf("decode error body %q: %v", buf.String(), err)
		}
	}
	return resp, ok, bad
}

const uniformReq = `{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":%d,"algorithm":%q,"alpha":0.1}`

func TestBalanceEndToEnd(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, alg := range []string{"HF", "BA", "BA-HF", "PHF"} {
		resp, plan, _ := postBalance(t, ts.URL, fmt.Sprintf(uniformReq, 7, 64, alg))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if len(plan.Parts) == 0 || len(plan.Parts) > 64 {
			t.Fatalf("%s: %d parts", alg, len(plan.Parts))
		}
		var sum float64
		for _, pt := range plan.Parts {
			sum += pt.Weight
		}
		if diff := sum - plan.Total; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: parts sum %g, total %g", alg, sum, plan.Total)
		}
		if plan.Guarantee <= 0 {
			t.Fatalf("%s: missing guarantee bound with declared alpha", alg)
		}
		if plan.Ratio > plan.Guarantee {
			t.Fatalf("%s: ratio %g exceeds guarantee %g", alg, plan.Ratio, plan.Guarantee)
		}
		if plan.Signature == "" {
			t.Fatalf("%s: missing signature", alg)
		}
	}
}

func TestBalanceCacheHit(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := fmt.Sprintf(uniformReq, 42, 128, "HF")
	resp1, plan1, _ := postBalance(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK || plan1.Cached {
		t.Fatalf("first request: status %d cached %v", resp1.StatusCode, plan1.Cached)
	}
	if resp1.Header.Get("X-Lbserve-Cache") != "miss" {
		t.Fatalf("first request cache header = %q", resp1.Header.Get("X-Lbserve-Cache"))
	}
	resp2, plan2, _ := postBalance(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK || !plan2.Cached {
		t.Fatalf("second request: status %d cached %v, want cache hit", resp2.StatusCode, plan2.Cached)
	}
	if resp2.Header.Get("X-Lbserve-Cache") != "hit" {
		t.Fatalf("second request cache header = %q", resp2.Header.Get("X-Lbserve-Cache"))
	}
	if plan1.Signature != plan2.Signature || plan1.Ratio != plan2.Ratio {
		t.Fatal("cached plan differs from computed plan")
	}
	sn := srv.Registry().Snapshot()
	if sn.Counters[mCacheHits] < 1 {
		t.Fatalf("cache_hits = %d, want ≥ 1", sn.Counters[mCacheHits])
	}
	// A request that differs only in elided defaults must still hit.
	resp3, plan3, _ := postBalance(t, ts.URL,
		`{"spec":{"family":"uniform","weight":1,"lo":0.1,"hi":0.5,"seed":42},"n":128,"algorithm":"hf","alpha":0.1}`)
	if resp3.StatusCode != http.StatusOK || !plan3.Cached {
		t.Fatal("canonicalisation failed: equivalent request missed the cache")
	}
}

func TestBalanceTypedRejections(t *testing.T) {
	const ok = `{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":4}`
	computed := map[string]int64{mTenantRequests: 1, mCacheMisses: 1, mPlansComputed: 1, mBadRequest: 1}
	runRejectionCases(t, "/v1/balance", []rejectionCase{
		{name: "get", method: http.MethodGet, status: 405, code: "method_not_allowed"},
		{name: "draining", body: ok, prep: startDrain, status: 503, code: "draining",
			deltas: map[string]int64{mRejectedDraining: 1}},
		{name: "invalid json", body: `{"spec":`, status: 400, code: "bad_request", deltas: badRequest},
		{name: "unknown field", body: `{"zpec":{}}`, status: 400, code: "bad_request", deltas: badRequest},
		{name: "missing family", body: `{"spec":{},"n":4}`, status: 400, code: "bad_spec", deltas: badRequest},
		{name: "unknown family", body: `{"spec":{"family":"warp"},"n":4}`, status: 400, code: "bad_spec", deltas: badRequest},
		{name: "bad uniform bounds", body: `{"spec":{"family":"uniform","lo":0.6,"hi":0.7},"n":4}`,
			status: 400, code: "bad_spec", deltas: badRequest},
		{name: "negative deadline", body: `{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":4,"deadline_ms":-1}`,
			status: 400, code: "bad_spec", deltas: badRequest},
		{name: "n too large", body: ok, cfg: Config{MaxN: 3}, status: 400, code: "n_too_large", deltas: badRequest},
		{name: "unknown algorithm", body: fmt.Sprintf(uniformReq, 1, 4, "quantum"),
			status: 400, code: "unknown_algorithm", deltas: badRequest},
		{name: "phf without alpha", body: `{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":4,"algorithm":"PHF"}`,
			status: 400, code: "alpha_required", deltas: computed},
		{name: "bad alpha", body: `{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":4,"algorithm":"PHF","alpha":0.9}`,
			status: 400, code: "bad_alpha", deltas: computed},
		{name: "bad kappa", body: `{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":4,"algorithm":"BA-HF","alpha":0.2,"kappa":-1}`,
			status: 400, code: "bad_kappa", deltas: computed},
		{name: "bad n", body: `{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":0}`,
			status: 400, code: "bad_n", deltas: computed},
	})
	runRejectionCases(t, "/v1/balance", computeRejections(ok,
		`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":4,"deadline_ms":20}`, nil))
}

// rejectionCase is one row of the endpoint rejection tables: a request
// sent to a fresh server built from cfg (after prep has run), the typed
// rejection it must receive, and the exact amount by which it must move
// each watched counter on top of service.requests (absent = unchanged).
type rejectionCase struct {
	name   string
	method string // default POST
	body   string
	cfg    Config
	prep   func(t *testing.T, srv *Server)
	status int
	code   string
	deltas map[string]int64
}

// mTenantRequests and mTenantShed are the default tenant's counters.
const (
	mTenantRequests = "service.tenant.default.requests"
	mTenantShed     = "service.tenant.default.shed"
)

// watchedCounters are the counters every rejection row pins.
var watchedCounters = []string{
	mRequests, mOK, mBadRequest, mRebalanceRequests, mBatchRequests,
	mCacheHits, mCacheMisses, mPlansComputed, mTenantRequests, mTenantShed,
	mRejectedDraining, mRejectedTenant, mRejectedShed, mRejectedQueueFull,
	mRejectedTenantQ, mDeadlineExceeded, mInternalErrors,
}

var badRequest = map[string]int64{mBadRequest: 1}

// runRejectionCases runs each row against path and checks its status,
// error code, Retry-After (present on exactly the 429s) and counter
// deltas. extra is added to every row's deltas (the endpoint's own
// request counter).
func runRejectionCases(t *testing.T, path string, cases []rejectionCase, extra ...map[string]int64) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.cfg)
			// Registered first so it runs after prep's cleanups release
			// any held workers.
			t.Cleanup(func() { srv.Shutdown(context.Background()) })
			if tc.prep != nil {
				tc.prep(t, srv)
			}
			before := srv.Registry().Snapshot().Counters
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(tc.body)))
			var bad errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
				t.Fatalf("status %d body %q is not an error envelope: %v", rec.Code, rec.Body.String(), err)
			}
			if rec.Code != tc.status || bad.Error.Code != tc.code {
				t.Fatalf("status/code = %d/%q, want %d/%q (%s)",
					rec.Code, bad.Error.Code, tc.status, tc.code, bad.Error.Message)
			}
			ra := rec.Header().Get("Retry-After")
			if tc.status == http.StatusTooManyRequests {
				if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
					t.Fatalf("Retry-After = %q, want an integer in [1, 30]", ra)
				}
			} else if ra != "" {
				t.Fatalf("Retry-After = %q on a %d", ra, rec.Code)
			}
			want := map[string]int64{mRequests: 1}
			for _, m := range append([]map[string]int64{tc.deltas}, extra...) {
				for k, v := range m {
					want[k] += v
				}
			}
			after := srv.Registry().Snapshot().Counters
			for _, c := range watchedCounters {
				if d := after[c] - before[c]; d != want[c] {
					t.Errorf("%s moved by %d, want %d", c, d, want[c])
				}
			}
		})
	}
}

// computeRejections are the compute-path rejections shared by all three
// POST endpoints: ok is a valid uncached request and deadlined the same
// request with a 20 ms deadline. Every row also counts the default
// tenant's request and one cache miss, plus the endpoint's own moves in
// pre.
func computeRejections(ok, deadlined string, pre map[string]int64) []rejectionCase {
	compute := func(m map[string]int64) map[string]int64 {
		m[mTenantRequests]++
		m[mCacheMisses]++
		for k, v := range pre {
			m[k] += v
		}
		return m
	}
	return []rejectionCase{
		{name: "tenant rate limited", body: ok, cfg: Config{TenantRate: 0.001, TenantBurst: 1},
			prep: func(t *testing.T, srv *Server) {
				srv.tenants.allowToken(srv.tenants.state(tenantDefault), time.Now())
			},
			status: 429, code: "tenant_rate_limited",
			deltas: compute(map[string]int64{mRejectedTenant: 1, mTenantShed: 1})},
		{name: "slo shed", body: ok, cfg: Config{TargetP99: time.Hour, SLOTick: time.Hour},
			prep: func(t *testing.T, srv *Server) {
				srv.adm.lastTick.Store(time.Now().UnixNano())
				srv.adm.admitF.Store(math.Float64bits(0))
			},
			status: 429, code: "slo_shed",
			deltas: compute(map[string]int64{mRejectedShed: 1, mTenantShed: 1})},
		{name: "queue full", body: ok, cfg: Config{Workers: 1, QueueDepth: 1},
			prep:   func(t *testing.T, srv *Server) { holdPool(t, srv, 1, "") },
			status: 429, code: "queue_full",
			deltas: compute(map[string]int64{mRejectedQueueFull: 1})},
		{name: "tenant queue full", body: ok, cfg: Config{Workers: 1, QueueDepth: 4, TenantQueueShare: 0.25},
			prep:   func(t *testing.T, srv *Server) { holdPool(t, srv, 1, tenantDefault) },
			status: 429, code: "tenant_queue_full",
			deltas: compute(map[string]int64{mRejectedTenantQ: 1})},
		{name: "deadline exceeded", body: deadlined, cfg: Config{Workers: 1},
			prep:   func(t *testing.T, srv *Server) { holdPool(t, srv, 0, "") },
			status: 503, code: "deadline_exceeded",
			deltas: compute(map[string]int64{mDeadlineExceeded: 1})},
	}
}

// startDrain sets the handler-level drain flag, as Shutdown does first.
func startDrain(t *testing.T, srv *Server) { srv.draining.Store(true) }

// holdPool occupies every worker of srv's pool and then queues queued
// more tasks under tenant, all blocked until the test ends.
func holdPool(t *testing.T, srv *Server, queued int, tenant string) {
	t.Helper()
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	running := make(chan struct{}, srv.cfg.Workers)
	for i := 0; i < srv.cfg.Workers; i++ {
		go srv.pool.Run(context.Background(), func() { running <- struct{}{}; <-gate })
	}
	for i := 0; i < srv.cfg.Workers; i++ {
		<-running
	}
	for i := 0; i < queued; i++ {
		go srv.pool.RunTenant(context.Background(), tenant, 1, func() { <-gate })
	}
	waitFor(t, "queue filled", func() bool { return srv.pool.queuedLen() >= queued })
}

// TestAdmissionQueueFull saturates a 1-worker, depth-1 pool through the
// HTTP surface and checks the overflow request is shed with a typed 429.
func TestAdmissionQueueFull(t *testing.T) {
	gate := make(chan struct{})
	var computes atomic.Int64
	srv := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Hooks:      Hooks{PreCompute: func() { computes.Add(1); <-gate }},
	})
	ts := httptest.NewServer(srv.Handler())
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer closeGate()

	// First occupy the worker, then fill the queue — posting both
	// concurrently races the filler against the worker's dequeue of the
	// holder, in which case the filler itself is shed and the queue
	// never reaches saturation.
	var wg sync.WaitGroup
	results := make(chan int, 2)
	post := func(seed int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, _ := postBalance(t, ts.URL, fmt.Sprintf(uniformReq, seed, 32, "HF"))
			results <- resp.StatusCode
		}()
	}
	post(0)
	waitFor(t, "worker held", func() bool { return computes.Load() >= 1 })
	post(1)
	waitFor(t, "queue filled", func() bool { return srv.pool.queuedLen() >= 1 })

	resp, _, bad := postBalance(t, ts.URL, fmt.Sprintf(uniformReq, 99, 32, "HF"))
	if resp.StatusCode != http.StatusTooManyRequests || bad.Error.Code != "queue_full" {
		t.Fatalf("overflow = %d/%q, want 429/queue_full", resp.StatusCode, bad.Error.Code)
	}

	closeGate()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request finished %d, want 200", code)
		}
	}
	if n := srv.Registry().Snapshot().Counters[mRejectedQueueFull]; n != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", n)
	}
}

// TestSingleflightCoalescingHTTP holds one computation in flight and
// fires identical requests at it; every duplicate must coalesce onto the
// single compute.
func TestSingleflightCoalescingHTTP(t *testing.T) {
	gate := make(chan struct{})
	var computes atomic.Int64
	var once sync.Once
	entered := make(chan struct{})
	srv := New(Config{
		Workers:    2,
		QueueDepth: 8,
		Hooks: Hooks{PreCompute: func() {
			computes.Add(1)
			once.Do(func() { close(entered) })
			<-gate
		}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := fmt.Sprintf(uniformReq, 5, 64, "BA")
	var wg sync.WaitGroup
	statuses := make(chan int, 6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _, _ := postBalance(t, ts.URL, body)
		statuses <- resp.StatusCode
	}()
	<-entered
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, _ := postBalance(t, ts.URL, body)
			statuses <- resp.StatusCode
		}()
	}
	// Give the followers time to join the flight, then release it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Counter(mRequests).Value() < 6 {
		if time.Now().After(deadline) {
			t.Fatal("followers never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight should coalesce)", got)
	}
	if n := srv.Registry().Snapshot().Counters[mCoalesced]; n < 1 {
		t.Fatalf("coalesced = %d, want ≥ 1", n)
	}
}

// TestGracefulDrain is the shutdown contract: a request in flight when
// SIGTERM-equivalent Shutdown arrives completes with 200, while the
// listener refuses new connections and late requests get typed 503s.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv := New(Config{
		Workers: 2,
		Hooks:   Hooks{PreCompute: func() { once.Do(func() { close(entered) }); <-gate }},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	// Put one request in flight and hold it there.
	inflight := make(chan int, 1)
	go func() {
		resp, _, _ := postBalance(t, base, fmt.Sprintf(uniformReq, 3, 64, "HF"))
		inflight <- resp.StatusCode
	}()
	<-entered

	// Begin the drain; it must block on the in-flight request.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// The listener must start refusing new connections.
	refused := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		conn, err := net.DialTimeout("tcp", addr.String(), 100*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting connections during drain")
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	default:
	}

	// A request reaching the handler during the drain gets a typed 503.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/balance",
		strings.NewReader(fmt.Sprintf(uniformReq, 4, 16, "HF"))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining balance = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining healthz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}

	// Release the held computation: the in-flight request must complete
	// with 200 and Shutdown must then return cleanly.
	close(gate)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

func TestHealthzAndMetricz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	resp.Body.Close()

	postBalance(t, ts.URL, fmt.Sprintf(uniformReq, 1, 16, "HF"))
	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz = %v, %v", resp, err)
	}
	var sn obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatalf("metricz decode: %v", err)
	}
	resp.Body.Close()
	if sn.Counters[mRequests] < 1 || sn.Counters[mOK] < 1 {
		t.Fatalf("metricz counters = %v, want requests and ok ≥ 1", sn.Counters)
	}
	if _, ok := sn.Histograms[mLatencyNs]; !ok {
		t.Fatal("metricz missing service.latency_ns histogram")
	}
}

// TestAllFamiliesServe exercises every spec family once through the HTTP
// surface.
func TestAllFamiliesServe(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	bodies := []string{
		`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":32}`,
		`{"spec":{"family":"fixed","split_alpha":0.25},"n":32}`,
		`{"spec":{"family":"list","elems":2000,"split_alpha":0.2,"seed":1},"n":32}`,
		`{"spec":{"family":"fem","seed":1},"n":32}`,
		`{"spec":{"family":"quadrature","seed":1},"n":32}`,
		`{"spec":{"family":"searchtree","seed":1},"n":32}`,
	}
	for _, body := range bodies {
		resp, plan, bad := postBalance(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s → %d (%s)", body, resp.StatusCode, bad.Error.Message)
		}
		if len(plan.Parts) == 0 {
			t.Fatalf("%s → empty plan", body)
		}
	}
}
