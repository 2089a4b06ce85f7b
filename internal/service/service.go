package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb"
	"bisectlb/internal/obs"
)

// Config parameterises a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the compute pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers).
	QueueDepth int
	// CacheCapacity is the plan cache size in entries; negative disables
	// caching, 0 means the default (1024).
	CacheCapacity int
	// CacheShards is the shard count (default 16, rounded to a power of
	// two).
	CacheShards int
	// DefaultDeadline caps queue+compute time for requests that do not
	// set deadline_ms (default 2s).
	DefaultDeadline time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatchItems bounds the item count of one POST /v1/balance:batch
	// request (default 64); larger batches are rejected whole.
	MaxBatchItems int
	// MaxN caps the processor count a single request may plan for
	// (default 1<<20). Plan size and compute time grow with n, so
	// without a cap one request body with a huge n ties up a worker for
	// unbounded time and memory (found while preparing the handler fuzz
	// target). Larger n is rejected with code "n_too_large" before any
	// work is admitted.
	MaxN int

	// TargetP99 enables SLO-driven admission: when the p99 of
	// admitted-request latency over the sliding window exceeds
	// TargetP99 × SLOTolerance, the compute path is shed
	// probabilistically (429 slo_shed + Retry-After) and recovers
	// AIMD-style once the window clears. Zero disables the controller
	// (every request is admitted, subject to the queue bounds).
	TargetP99 time.Duration
	// SLOTolerance scales the breach threshold (default 1.0): breach
	// when windowed p99 > TargetP99 × SLOTolerance.
	SLOTolerance float64
	// SLOTick is the control-loop cadence (default 250ms); the sliding
	// window spans SLOEpochs ticks (default 8, so 2s by default).
	SLOTick   time.Duration
	SLOEpochs int

	// TenantHeader names the HTTP header carrying the tenant id
	// (default "X-Lbserve-Tenant"); the request body's tenant field is
	// the fallback, then "default".
	TenantHeader string
	// TenantRate enables per-tenant token buckets on the compute path:
	// each tenant computes at most TenantRate plans/sec sustained with
	// TenantBurst of burst (429 tenant_rate_limited beyond). Zero
	// disables the buckets. Cache hits are never charged — they consume
	// no worker.
	TenantRate  float64
	TenantBurst float64
	// TenantQueueShare caps one tenant's slice of QueueDepth, as a
	// fraction in (0, 1] (default 1.0 = no per-tenant bound). With a
	// share below 1 a hot tenant exhausts its slice (429
	// tenant_queue_full) while other tenants still admit.
	TenantQueueShare float64
	// TenantWeights sets weighted-fair dequeue weights per tenant id
	// (default 1 each): a tenant with weight w is served up to w tasks
	// per round-robin visit of the worker pool.
	TenantWeights map[string]int
	// MaxTenants bounds per-tenant state cardinality (default 64);
	// further ids share one "other" bucket.
	MaxTenants int

	// Registry receives the service.* metrics (default: a fresh one).
	Registry *obs.Registry
	// Hooks are test seams; zero in production.
	Hooks Hooks
}

// Hooks expose deterministic test seams into the serving path.
type Hooks struct {
	// PreCompute, when set, runs at the start of every pool-executed
	// computation. Tests use it to hold a request in flight across a
	// Shutdown or to fill the pool deterministically.
	PreCompute func()
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 1024
	}
	if c.CacheShards < 1 {
		c.CacheShards = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatchItems < 1 {
		c.MaxBatchItems = 64
	}
	if c.MaxN < 1 {
		c.MaxN = 1 << 20
	}
	if c.SLOTolerance <= 0 {
		c.SLOTolerance = 1
	}
	if c.SLOTick <= 0 {
		c.SLOTick = 250 * time.Millisecond
	}
	if c.SLOEpochs < 1 {
		c.SLOEpochs = 8
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Lbserve-Tenant"
	}
	if c.TenantRate > 0 && c.TenantBurst < 1 {
		c.TenantBurst = 2 * c.TenantRate
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.TenantQueueShare <= 0 || c.TenantQueueShare > 1 {
		c.TenantQueueShare = 1
	}
	if c.MaxTenants < 1 {
		c.MaxTenants = 64
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// tenantQueueCap converts the queue-share fraction into a slot count.
func (c Config) tenantQueueCap() int {
	cap := int(float64(c.QueueDepth) * c.TenantQueueShare)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Server is the balancing service. Create with New, expose via Handler
// (for tests and in-process use) or Start/Serve (real listener), and
// stop with Shutdown.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	cache    *planCache
	sf       sfGroup
	pool     *workerPool
	adm      *admission
	tenants  *tenantSet
	mux      *http.ServeMux
	httpSrv  *http.Server
	draining atomic.Bool
	// drainTimeout records that Shutdown's context expired before the
	// drain finished cleanly; /healthz reports it distinctly.
	drainTimeout atomic.Bool
	started      time.Time
	// cluster, when non-nil, routes cache misses for remotely-owned keys
	// to their owner peer (SetCluster; read lock-free on the request
	// path, so it must be set before serving starts).
	cluster PeerCluster
	// restoredVersion/restoredEntries record the last snapshot restore
	// for /healthz (0 = no restore has happened).
	restoredVersion atomic.Int64
	restoredEntries atomic.Int64
	// keyBufs pools request-key buffers so canonicalising a request on
	// the hot path does not allocate (spec.go appendKey).
	keyBufs sync.Pool
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		cache:   newPlanCache(cfg.CacheCapacity, cfg.CacheShards, cfg.Registry),
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth, cfg.tenantQueueCap(), cfg.Registry),
		tenants: newTenantSet(cfg),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.adm = newAdmission(cfg.TargetP99, cfg.SLOTolerance, cfg.SLOTick, cfg.SLOEpochs,
		cfg.Registry.Histogram(mAdmittedLatencyNs), cfg.Registry)
	s.keyBufs.New = func() any { b := make([]byte, 0, 128); return &b }
	s.mux.HandleFunc("/v1/balance", s.post(s.handleBalance))
	s.mux.HandleFunc("/v1/balance:batch", s.post(s.handleBatch))
	s.mux.HandleFunc("/v1/rebalance", s.post(s.handleRebalance, mRebalanceRequests))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	return s
}

// Registry returns the server's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the server's HTTP handler (for httptest and
// in-process serving).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Serve runs the server on ln, blocking until Shutdown. It returns
// http.ErrServerClosed after a clean drain, matching net/http.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.mux}
	return s.httpSrv.Serve(ln)
}

// Shutdown drains the server gracefully: new requests are refused (the
// listener closes; requests racing in get 503), in-flight requests run
// to completion, then the worker pool stops. The context bounds how long
// to wait for stragglers; when it expires first, Shutdown reports the
// timeout (the drain still completes, just late), emits
// service.drain_timeout instead of service.drained, and /healthz shows
// status drain_timeout — so a supervisor can tell a clean drain from
// one that blew its budget.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.reg.Gauge(mDraining).Set(1)
	s.reg.Emit("service.drain", "refusing new work")
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// Stop the pool, but don't let a held worker pin Shutdown past its
	// budget: when the context expires first, the stop keeps running in
	// the background (the drain completes late) and Shutdown reports the
	// timeout now.
	stopped := make(chan struct{})
	go func() { s.pool.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	if err != nil {
		s.drainTimeout.Store(true)
		s.reg.Emit("service.drain_timeout", "drain budget expired with work in flight: "+err.Error())
	} else {
		s.reg.Emit("service.drained", "in-flight work complete")
	}
	return err
}

// errorBody is the typed rejection envelope of every non-200 response.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) reject(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		// Every 429 tells the client when to come back, derived from the
		// shed state and queue backlog (admission.go retryAfterSecs).
		secs := retryAfterSecs(s.adm.admitFrac(), s.pool.queuedLen(), s.cfg.Workers)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	if s.drainTimeout.Load() {
		status = "drain_timeout"
	}
	body := map[string]any{
		"status":    status,
		"uptime_ms": time.Since(s.started).Milliseconds(),
		"inflight":  s.reg.Gauge(mInflight).Value(),
		"cached":    s.cache.Len(),
	}
	snapshot := map[string]any{"restored": s.restoredVersion.Load() != 0}
	if v := s.restoredVersion.Load(); v != 0 {
		snapshot["restored_version"] = v
		snapshot["restored_entries"] = s.restoredEntries.Load()
	}
	body["snapshot"] = snapshot
	if s.cluster != nil {
		body["cluster"] = s.cluster.Healthz()
	}
	if s.adm != nil {
		body["slo"] = map[string]any{
			"target_p99_ms":  s.cfg.TargetP99.Milliseconds(),
			"admit_permille": s.reg.Gauge(mSLOAdmitPermille).Value(),
			"window_p99_ms":  time.Duration(s.reg.Gauge(mSLOWindowP99).Value()).Milliseconds(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// post wraps a POST endpoint with the prologue all three share: it counts
// the request (service.requests plus the endpoint's own counters), keeps
// the in-flight gauge and the latency histogram, and refuses other
// methods and a draining server. The endpoint then decodes its body with
// s.decode.
func (s *Server) post(handle func(http.ResponseWriter, *http.Request, time.Time), counters ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter(mRequests).Inc()
		for _, c := range counters {
			s.reg.Counter(c).Inc()
		}
		s.reg.Gauge(mInflight).Add(1)
		defer s.reg.Gauge(mInflight).Add(-1)
		start := time.Now()
		defer s.reg.Histogram(mLatencyNs).ObserveSince(start)

		if r.Method != http.MethodPost {
			s.reject(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
			return
		}
		if s.draining.Load() {
			s.reg.Counter(mRejectedDraining).Inc()
			s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		handle(w, r, start)
	}
}

// decode strictly decodes a POST body into v, bounded by MaxBodyBytes;
// on failure it has sent the 400 and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.badRequest(w, "bad_request", "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// badRequest sends a typed 400 and counts it.
func (s *Server) badRequest(w http.ResponseWriter, code, msg string) {
	s.reg.Counter(mBadRequest).Inc()
	s.reject(w, http.StatusBadRequest, code, msg)
}

// checkSpec is the one spec check of every entry point — both handlers,
// each batch item and both owner fills. It normalises req, validates it
// (and drift, for a rebalance, whose spec and algorithm it normalises
// too), bounds n and parses the algorithm. A failure carries the client
// error code: bad_spec, n_too_large or unknown_algorithm.
func (s *Server) checkSpec(req *BalanceRequest, drift *RebalanceRequest) (bisectlb.Algorithm, string, error) {
	req.normalize()
	err := req.validate()
	if err == nil && drift != nil {
		drift.Spec, drift.Algorithm = req.Spec, req.Algorithm
		err = drift.validate()
	}
	if err != nil {
		return 0, "bad_spec", err
	}
	if req.N > s.cfg.MaxN {
		return 0, "n_too_large", fmt.Errorf("n=%d exceeds the server's max_n limit %d", req.N, s.cfg.MaxN)
	}
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return 0, "unknown_algorithm", err
	}
	return alg, "", nil
}

// A planJob is a decoded, checked request as the serving pipeline sees
// it: compute runs on a worker and plans the request under its key's
// signature sig. A job is the heap object the body was decoded into, so
// handing it to the pipeline allocates nothing, where a compute closure
// would cost an allocation per request, cache hits included.
type planJob interface {
	compute(s *Server, sig string) (*Plan, error)
}

// balanceJob is a POST /v1/balance body with its parsed algorithm.
type balanceJob struct {
	req BalanceRequest
	alg bisectlb.Algorithm
}

func (j *balanceJob) compute(s *Server, sig string) (*Plan, error) {
	return computePlan(&j.req, j.alg, sig, s.reg)
}

func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request, start time.Time) {
	job := new(balanceJob)
	if !s.decode(w, r, &job.req) {
		return
	}
	alg, code, err := s.checkSpec(&job.req, nil)
	if err != nil {
		s.badRequest(w, code, err.Error())
		return
	}
	job.alg = alg
	// The tenant id is deliberately not part of the key — plans are
	// tenant-independent facts, so tenants share each other's warm cache.
	kb := s.keyBufs.Get().(*[]byte)
	*kb = job.req.appendKey((*kb)[:0])
	s.serve(w, r, start, kb, job, &job.req, job.req.Tenant, job.req.DeadlineMS)
}

// serve is the serving pipeline of /v1/balance and /v1/rebalance. The
// endpoint supplies its canonical key in the pooled buffer kb (serve
// returns it to the pool), the job that computes the plan, the body a
// remote owner is sent, and its tenant and deadline fields. serve looks
// the key up, answers a hit, guards and bounds the compute path, routes
// a miss to its owner in cluster mode, and coalesces identical misses.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, start time.Time,
	kb *[]byte, job planJob, peerBody any, tenant string, deadlineMS int64) {
	tn := s.tenants.state(tenantID(r, s.cfg.TenantHeader, tenant))
	tn.requests.Inc()

	// Look up by bytes: outside cluster mode the cache-hit path
	// allocates neither the key string nor the signature (the cached
	// plan carries its own).
	plan, hit := s.cache.GetBytes(*kb)
	key := ""
	var hash uint64
	if !hit || s.cluster != nil {
		key = string(*kb)
		hash = fnv64a(*kb)
	}
	s.keyBufs.Put(kb)
	if hit {
		// Every request for a self-owned key counts toward its hot-key
		// ranking (DESIGN.md §14), hits included.
		if pc := s.cluster; pc != nil {
			if _, self := pc.Owner(hash); self {
				pc.Touch(key, hash)
			}
		}
		if s.respondPlan(w, plan, true, false, "hit") {
			s.observeAdmitted(tn, start)
		}
		return
	}

	ctx, cancel, ok := s.admit(w, r, tn, start, deadlineMS)
	if !ok {
		return
	}
	defer cancel()
	sig := strconv.FormatUint(hash, 16)

	// In cluster mode a miss on a remotely-owned key is proxied to its
	// owner instead of computed here, so the per-node singleflight
	// composes into one planner execution per key cluster-wide. The
	// owner being unreachable is the failover path: compute locally and
	// keep serving. cacheState is written only by the singleflight
	// leader (followers report a plain coalesced miss), and sf.Do's
	// internal synchronisation orders that write before any return.
	remote := false
	if pc := s.cluster; pc != nil {
		if _, self := pc.Owner(hash); self {
			pc.Touch(key, hash)
		} else {
			remote = true
		}
	}
	cacheState := "miss"
	fill := func() (*Plan, error) {
		if remote {
			p, peerCached, err := s.clusterFetch(ctx, s.cluster, key, hash, peerBody)
			if err == nil {
				cacheState = "peer-miss"
				if peerCached {
					cacheState = "peer-hit"
				}
				return p, nil
			}
			s.reg.Counter(mClusterFailover).Inc()
		}
		return s.computeOnWorker(ctx, tn, key, sig, job)
	}
	plan, shared, err := s.sf.Do(ctx, key, fill)
	if shared {
		s.reg.Counter(mCoalesced).Inc()
	}
	if err != nil {
		s.rejectComputeError(w, err)
		return
	}
	if s.respondPlan(w, plan, cacheState == "peer-hit", shared, cacheState) {
		s.observeAdmitted(tn, start)
	}
}

// admit guards the compute path — the only one subject to overload
// protection, since a cache hit costs no worker and shedding it would
// only burn goodput. The tenant's token bucket goes first, then the SLO
// controller; an admitted request gets its deadline context. When ok is
// false the 429 has been sent.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tn *tenantState, start time.Time, deadlineMS int64) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	if !s.tenants.allowToken(tn, start) {
		tn.shed.Inc()
		s.reg.Counter(mRejectedTenant).Inc()
		s.reject(w, http.StatusTooManyRequests, "tenant_rate_limited",
			fmt.Sprintf("tenant %q exceeded its compute rate", tn.id))
		return nil, nil, false
	}
	if !s.adm.allow(start) {
		tn.shed.Inc()
		s.reg.Counter(mRejectedShed).Inc()
		s.reject(w, http.StatusTooManyRequests, "slo_shed",
			"service is over its latency SLO; load is being shed")
		return nil, nil, false
	}
	deadline := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		deadline = time.Duration(deadlineMS) * time.Millisecond
	}
	ctx, cancel = context.WithTimeout(r.Context(), deadline)
	return ctx, cancel, true
}

// computeOnWorker runs job on a pool worker and caches the plan under
// key. A client request runs in its tenant's queue after the PreCompute
// hook; an owner fill for a peer (tn nil) runs as the anonymous tenant
// without it.
func (s *Server) computeOnWorker(ctx context.Context, tn *tenantState, key, sig string, job planJob) (*Plan, error) {
	id, weight := "", 1
	if tn != nil {
		id, weight = tn.id, tn.weight
	}
	var (
		p   *Plan
		err error
	)
	rerr := s.pool.RunTenant(ctx, id, weight, func() {
		if tn != nil && s.cfg.Hooks.PreCompute != nil {
			s.cfg.Hooks.PreCompute()
		}
		p, err = job.compute(s, sig)
		if err == nil {
			s.cache.Put(key, p)
		}
	})
	if rerr != nil {
		return nil, rerr
	}
	return p, err
}

// observeAdmitted records a successful (200) request's latency into the
// controller's steering histogram and the tenant's.
func (s *Server) observeAdmitted(tn *tenantState, start time.Time) {
	lat := int64(time.Since(start))
	s.reg.Histogram(mAdmittedLatencyNs).Observe(lat)
	tn.ok.Inc()
	tn.latency.Observe(lat)
}

// classifyComputeError maps an admission, deadline, facade or patch
// error to the HTTP status, error code, rejection counter and client
// message used for it everywhere — single requests reject with it, batch
// items embed it.
func classifyComputeError(err error) (status int, code, metric, msg string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full", mRejectedQueueFull, err.Error()
	case errors.Is(err, ErrTenantQueueFull):
		return http.StatusTooManyRequests, "tenant_queue_full", mRejectedTenantQ, err.Error()
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining", mRejectedDraining, err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "deadline_exceeded", mDeadlineExceeded,
			"request deadline expired before the plan was computed"
	case errors.Is(err, bisectlb.ErrAlphaRequired):
		return http.StatusBadRequest, "alpha_required", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadAlpha):
		return http.StatusBadRequest, "bad_alpha", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadKappa):
		return http.StatusBadRequest, "bad_kappa", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadN):
		return http.StatusBadRequest, "bad_n", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrNilProblem), errors.Is(err, bisectlb.ErrUnknownAlgorithm):
		return http.StatusBadRequest, "bad_request", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrUnknownPart):
		return http.StatusBadRequest, "unknown_part", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadFactor):
		return http.StatusBadRequest, "bad_delta", mBadRequest, err.Error()
	default:
		return http.StatusInternalServerError, "internal", mInternalErrors,
			fmt.Sprintf("balance failed: %v", err)
	}
}

// rejectComputeError maps admission, deadline and facade errors to typed
// HTTP rejections.
func (s *Server) rejectComputeError(w http.ResponseWriter, err error) {
	status, code, metric, msg := classifyComputeError(err)
	s.reg.Counter(metric).Inc()
	s.reject(w, status, code, msg)
}
