package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"bisectlb"
	"bisectlb/internal/obs"
)

// This file serves POST /v1/rebalance: incremental replanning over a
// previously served plan (DESIGN.md §15). The request names the same
// spec/n/algorithm identity as /v1/balance plus a drift vector of
// per-part weight factors; the server patches the prior plan instead of
// replanning from scratch, falling back to a bit-identical fresh plan
// when the drift is too large for a patch to pay off.

// DriftDelta is one entry of a rebalance drift vector: the part's
// observed load is Factor times its planned weight.
type DriftDelta struct {
	ID     uint64  `json:"id"`
	Factor float64 `json:"factor"`
}

// RebalanceRequest is the body of POST /v1/rebalance. The spec fields
// identify the prior plan exactly as a /v1/balance request would; Deltas
// carries the observed drift. PriorSignature, when set, must match the
// signature /v1/balance reported for the prior plan — a cheap guard
// against patching a different plan than the client measured.
type RebalanceRequest struct {
	Spec       ProblemSpec `json:"spec"`
	N          int         `json:"n"`
	Algorithm  string      `json:"algorithm,omitempty"`
	Alpha      float64     `json:"alpha"`
	Kappa      float64     `json:"kappa,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
	Tenant     string      `json:"tenant,omitempty"`

	PriorSignature string       `json:"prior_signature,omitempty"`
	Deltas         []DriftDelta `json:"deltas,omitempty"`
}

// base maps the identity fields onto a BalanceRequest, the canonical
// form spec.go knows how to key and plan.go knows how to compute.
func (r *RebalanceRequest) base() BalanceRequest {
	return BalanceRequest{
		Spec:      r.Spec,
		N:         r.N,
		Algorithm: r.Algorithm,
		Alpha:     r.Alpha,
		Kappa:     r.Kappa,
		Tenant:    r.Tenant,
	}
}

// validate rejects requests the patch path cannot serve. Rebalancing
// requires the flat planning substrate (the patch re-bisects subtrees
// through the kernel), so only the flat families qualify, and the
// α-band drift rule needs a declared α even for the α-oblivious
// algorithms.
func (r *RebalanceRequest) validate(base *BalanceRequest) error {
	if err := base.validate(); err != nil {
		return err
	}
	if !patchable(r.Spec.Family) {
		return fmt.Errorf("family %q has no flat kernel; /v1/rebalance supports uniform, fixed and list", r.Spec.Family)
	}
	if !(r.Alpha > 0 && r.Alpha <= 0.5) {
		return fmt.Errorf("rebalance needs a declared α in (0, 1/2] for the drift band, got %g", r.Alpha)
	}
	for i, d := range r.Deltas {
		if !(d.Factor > 0) || d.Factor > 1e12 {
			return fmt.Errorf("deltas[%d]: factor must be in (0, 1e12], got %g", i, d.Factor)
		}
	}
	return nil
}

// driftKeySuffix appends the canonical drift identity to a base cache
// key: "|drift=" plus a short digest of the sorted, last-wins-deduped
// delta vector. Two requests whose drifts differ only in delta order or
// superseded duplicates share one cache entry.
func driftKeySuffix(b []byte, deltas []DriftDelta) []byte {
	dedup := make([]DriftDelta, 0, len(deltas))
	for _, d := range deltas { // last wins, matching PatchInto
		found := false
		for j := range dedup {
			if dedup[j].ID == d.ID {
				dedup[j].Factor = d.Factor
				found = true
				break
			}
		}
		if !found {
			dedup = append(dedup, d)
		}
	}
	sort.Slice(dedup, func(i, j int) bool { return dedup[i].ID < dedup[j].ID })
	var enc []byte
	for _, d := range dedup {
		enc = strconv.AppendUint(enc, d.ID, 16)
		enc = append(enc, ':')
		enc = strconv.AppendFloat(enc, d.Factor, 'g', -1, 64)
		enc = append(enc, ';')
	}
	b = append(b, "|drift="...)
	return strconv.AppendUint(b, fnv64a(enc), 16)
}

// isDriftKey reports whether a cache key names a rebalance result (the
// drift digest is appended after the balance identity, so a plain
// Contains would also work; the marker never occurs in a balance key).
func isDriftKey(key string) bool {
	for i := 0; i+7 <= len(key); i++ {
		if key[i:i+7] == "|drift=" {
			return true
		}
	}
	return false
}

// deltaScratch pools a DeltaPlanner with its PatchedPlan buffer, the
// rebalance analogue of plannerScratch.
type deltaScratch struct {
	dp *bisectlb.DeltaPlanner
	pp bisectlb.PatchedPlan
}

var deltaPool = sync.Pool{New: func() any {
	return &deltaScratch{dp: bisectlb.NewParallelDeltaPlanner(0, bisectlb.ParallelOptions{})}
}}

// Delta-pool retention caps.
const (
	// maxPooledDeltaFootprint bounds a pooled delta scratch's retained
	// buffers: its planner's, capped like a pooled planner, plus the
	// repair scratch. Measured on amd64 after 2^16 patches and full
	// replans under HF, PHF, BA and BA-HF on the uniform, fixed and
	// list kernels, a delta planner holds 175–182 B per part with one
	// worker and 235–377 B per part with 2–64, of which the repair
	// scratch is 27–34 B. 64 B per part over maxPooledFootprint is its
	// headroom.
	maxPooledDeltaFootprint = maxPooledFootprint + 64*maxPooledPartsCap
	// maxPooledPatchParts is maxPooledPartsCap for a patched plan, which
	// holds a few more parts than N: the fragments of a repaired subtree
	// can outnumber the processors of its pool (65 555–65 582 parts for
	// N = 2^16 uniform plans under HF, PHF, BA and BA-HF). It allows an
	// overshoot of N/16, and sizePatchParts gives the buffer that room.
	maxPooledPatchParts = maxPooledPartsCap + maxPooledPartsCap/16
)

// sizePatchParts is sizeParts for a patched plan of n processors: room
// for n parts plus the overshoot maxPooledPatchParts allows, so the
// buffer is not append-grown past the cap.
func sizePatchParts(pp *bisectlb.PatchedPlan, n int) {
	if want := n + n/16; n <= maxPooledPartsCap && cap(pp.Plan.Parts) < want {
		pp.Plan.Parts = make([]bisectlb.FlatPart, 0, want)
	}
}

func putDeltaScratch(reg *obs.Registry, sc *deltaScratch) {
	if cap(sc.pp.Plan.Parts) > maxPooledPatchParts || sc.dp.Footprint() > maxPooledDeltaFootprint {
		reg.Counter(mPlannerPoolDrops).Inc()
		return
	}
	reg.Counter(mPlannerPoolPuts).Inc()
	deltaPool.Put(sc)
}

// RebalanceInfo is the patch certificate attached to a rebalanced plan:
// what the patch did and the bound its ratio is checked against.
type RebalanceInfo struct {
	// Outcome is "noop", "patched" or "full_replan".
	Outcome string `json:"outcome"`
	// Band is the drift band B = max(guarantee bound, 2): a part is dirty
	// when its drifted per-processor load exceeds B × the drifted mean,
	// and a patched plan's ratio is bounded by B whenever no oversize
	// part survives (DESIGN.md §15).
	Band float64 `json:"band"`
	// Dirty counts parts outside the band; DirtyWeightFrac is their share
	// of the drifted total weight (≥ the full-replan threshold forces a
	// fresh plan).
	Dirty           int     `json:"dirty"`
	DirtyWeightFrac float64 `json:"dirty_weight_frac"`
	// Splits counts the bisections the patch performed — the work a fresh
	// plan would have multiplied.
	Splits int `json:"splits"`
	// Oversize counts repair fragments and indivisible leaves still above
	// the band; when zero, ratio ≤ Band holds.
	Oversize int `json:"oversize"`
	// GroupProcs, for patched outcomes, gives each group's processor
	// count; parts carry their group index. Absent for noop and
	// full_replan outcomes (every part is its own group there).
	GroupProcs []int `json:"group_procs,omitempty"`
	// PriorComputed is true when the prior plan was not in the cache and
	// had to be recomputed before patching.
	PriorComputed bool `json:"prior_computed"`
}

// RebalanceResponse wraps a rebalanced plan with serving metadata,
// mirroring BalanceResponse.
type RebalanceResponse struct {
	Plan
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(mRequests).Inc()
	s.reg.Counter(mRebalanceRequests).Inc()
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

	var req RebalanceRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return
	}
	base := req.base()
	base.normalize()
	req.Spec = base.Spec
	req.Algorithm = base.Algorithm
	if err := req.validate(&base); err != nil {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	if req.N > s.cfg.MaxN {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "n_too_large",
			fmt.Sprintf("n=%d exceeds the server's max_n limit %d", req.N, s.cfg.MaxN))
		return
	}
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "unknown_algorithm", err.Error())
		return
	}
	if _, _, err := flatInputs(&base); err != nil {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "rebalance_unsupported",
			fmt.Sprintf("%s spec has no flat form to patch: %v", req.Spec.Family, err))
		return
	}

	// Canonical identities: the prior plan's key (what /v1/balance would
	// cache) and the drift key extending it with the delta digest.
	kb := s.keyBufs.Get().(*[]byte)
	keyBytes := base.appendKey((*kb)[:0])
	baseKey := string(keyBytes)
	keyBytes = driftKeySuffix(keyBytes, req.Deltas)
	plan, hit := s.cache.GetBytes(keyBytes)
	key := ""
	if !hit {
		key = string(keyBytes)
	}
	*kb = keyBytes
	s.keyBufs.Put(kb)

	if req.PriorSignature != "" && req.PriorSignature != signature(baseKey) {
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "prior_mismatch",
			fmt.Sprintf("prior_signature %q does not match this spec's plan signature %q",
				req.PriorSignature, signature(baseKey)))
		return
	}

	tn := s.tenants.state(tenantID(r, s.cfg.TenantHeader, req.Tenant))
	tn.requests.Inc()
	if hit {
		if s.respondPlan(w, plan, true, false, "hit") {
			s.observeAdmitted(tn, start)
		}
		return
	}

	// Compute path: same overload protection as /v1/balance.
	if !s.tenants.allowToken(tn, start) {
		tn.shed.Inc()
		s.reg.Counter(mRejectedTenant).Inc()
		s.reject(w, http.StatusTooManyRequests, "tenant_rate_limited",
			fmt.Sprintf("tenant %q exceeded its compute rate", tn.id))
		return
	}
	if !s.adm.allow(start) {
		tn.shed.Inc()
		s.reg.Counter(mRejectedShed).Inc()
		s.reject(w, http.StatusTooManyRequests, "slo_shed",
			"service is over its latency SLO; load is being shed")
		return
	}
	hash := fnv64aString(key)

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	computeLocal := func() (*Plan, error) {
		var (
			p    *Plan
			cerr error
		)
		rerr := s.pool.RunTenant(ctx, tn.id, tn.weight, func() {
			if s.cfg.Hooks.PreCompute != nil {
				s.cfg.Hooks.PreCompute()
			}
			p, cerr = s.computeRebalance(&req, &base, alg, baseKey, key)
			if cerr == nil {
				s.cache.Put(key, p)
			}
		})
		if rerr != nil {
			return nil, rerr
		}
		return p, cerr
	}

	// Cluster mode composes exactly as on the balance path: the drift key
	// hashes to an owner, a remotely-owned miss ships the full rebalance
	// request to it (ClusterFill routes drift keys back here), and an
	// unreachable owner fails over to local computation.
	fill := computeLocal
	cacheState := "miss"
	if pc := s.cluster; pc != nil {
		if _, self := pc.Owner(hash); !self {
			fill = func() (*Plan, error) {
				body, merr := json.Marshal(&req)
				if merr != nil {
					return nil, merr
				}
				raw, peerCached, ferr := pc.Fetch(ctx, key, hash, body)
				if ferr != nil {
					s.reg.Counter(mClusterFailover).Inc()
					return computeLocal()
				}
				var p Plan
				if uerr := json.Unmarshal(raw, &p); uerr != nil {
					return nil, fmt.Errorf("service: owner returned an undecodable plan for %q: %w", key, uerr)
				}
				s.reg.Counter(mClusterProxied).Inc()
				s.cache.Put(key, &p)
				s.reg.Counter(mClusterPeerPlans).Inc()
				if peerCached {
					cacheState = "peer-hit"
				} else {
					cacheState = "peer-miss"
				}
				return &p, nil
			}
		} else {
			pc.Touch(key, hash)
		}
	}

	plan, shared, err := s.sf.Do(ctx, key, fill)
	if shared {
		s.reg.Counter(mCoalesced).Inc()
	}
	if err != nil {
		s.rejectRebalanceError(w, err)
		return
	}
	if s.respondPlan(w, plan, cacheState == "peer-hit", shared, cacheState) {
		s.observeAdmitted(tn, start)
	}
}

// computeRebalance fetches or recomputes the flat prior plan and patches
// it against the drift vector. Runs on a worker; callers cache the
// result under the drift key.
func (s *Server) computeRebalance(req *RebalanceRequest, base *BalanceRequest, alg bisectlb.Algorithm, baseKey, driftKey string) (*Plan, error) {
	root, k, err := flatInputs(base)
	if err != nil {
		return nil, err
	}

	// Fetch-or-compute the prior. A cached served plan carries its flat
	// form only if it was computed on this node (the attachment does not
	// survive JSON), so a peer-fetched or evicted prior is recomputed —
	// counted, because it erases the patch's latency advantage.
	priorComputed := false
	var priorServed *Plan
	if p, hit := s.cache.Get(baseKey); hit && p.flat != nil {
		priorServed = p
	} else {
		fresh, err := computePlan(base, alg, signature(baseKey), s.reg)
		if err != nil {
			return nil, err
		}
		s.cache.Put(baseKey, fresh)
		s.reg.Counter(mRebalancePriorComputed).Inc()
		priorComputed = true
		priorServed = fresh
	}
	prior := priorServed.flat

	deltas := make([]bisectlb.WeightDelta, len(req.Deltas))
	for i, d := range req.Deltas {
		deltas[i] = bisectlb.WeightDelta{ID: d.ID, Factor: d.Factor}
	}
	kappa := req.Kappa
	if kappa == 0 {
		kappa = 1
	}
	opt := bisectlb.PatchOptions{Alpha: req.Alpha, Kappa: kappa}

	sc := deltaPool.Get().(*deltaScratch)
	defer putDeltaScratch(s.reg, sc)
	sizePatchParts(&sc.pp, req.N)
	sc.dp.SetMetrics(s.reg)

	start := time.Now()
	_, stats, err := sc.dp.PatchInto(&sc.pp, k, root, prior, deltas, opt)
	if err != nil {
		return nil, err
	}
	s.reg.Histogram(mRebalancePatchNs).ObserveSince(start)

	info := &RebalanceInfo{
		Outcome:       stats.Outcome.String(),
		Band:          stats.Band,
		Dirty:         stats.Dirty,
		Splits:        stats.Splits,
		Oversize:      stats.Oversize + stats.OversizeLeaves,
		PriorComputed: priorComputed,
	}
	if stats.DriftedTotal > 0 {
		info.DirtyWeightFrac = stats.DirtyWeight / stats.DriftedTotal
	}
	sig := signature(driftKey)

	switch stats.Outcome {
	case bisectlb.PatchNoop:
		s.reg.Counter(mRebalanceNoop).Inc()
		// The prior plan is still within the band: serve it unchanged
		// (parts shared by reference — served plans are immutable) under
		// the drift signature, certificate attached.
		out := *priorServed
		out.flat = nil
		out.Signature = sig
		out.Rebalance = info
		return &out, nil
	case bisectlb.PatchFullReplan:
		s.reg.Counter(mRebalanceFullReplans).Inc()
		out := servePlan(&sc.pp.Plan, base, alg, sig)
		out.Rebalance = info
		return out, nil
	default:
		s.reg.Counter(mRebalancePatched).Inc()
		out := servePlan(&sc.pp.Plan, base, alg, sig)
		out.Algorithm = sc.pp.Plan.Algorithm // keep the "+patch" display name
		info.GroupProcs = make([]int, len(sc.pp.GroupProcs))
		for i, p := range sc.pp.GroupProcs {
			info.GroupProcs[i] = int(p)
		}
		for i := range out.Parts {
			out.Parts[i].Group = int(sc.pp.Group[i])
		}
		out.Rebalance = info
		return out, nil
	}
}

// rejectRebalanceError extends the shared compute-error mapping with the
// patch path's typed errors.
func (s *Server) rejectRebalanceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, bisectlb.ErrUnknownPart):
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "unknown_part", err.Error())
	case errors.Is(err, bisectlb.ErrBadFactor):
		s.reg.Counter(mBadRequest).Inc()
		s.reject(w, http.StatusBadRequest, "bad_delta", err.Error())
	case errors.Is(err, bisectlb.ErrPlanMismatch):
		s.reg.Counter(mInternalErrors).Inc()
		s.reject(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		s.rejectComputeError(w, err)
	}
}

// clusterFillRebalance is the owner-side fill for a proxied drift key:
// ClusterFill routes keys carrying the "|drift=" marker here, so peer
// traffic patches through the same pool and singleflight as local
// rebalance requests.
func (s *Server) clusterFillRebalance(ctx context.Context, key string, body []byte) ([]byte, bool, error) {
	var req RebalanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, fmt.Errorf("service: peer rebalance body: %w", err)
	}
	base := req.base()
	base.normalize()
	req.Spec = base.Spec
	req.Algorithm = base.Algorithm
	if err := req.validate(&base); err != nil {
		return nil, false, err
	}
	if req.N > s.cfg.MaxN {
		return nil, false, fmt.Errorf("service: peer fill n=%d exceeds max_n %d", req.N, s.cfg.MaxN)
	}
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return nil, false, err
	}
	baseKey := base.cacheKey()
	plan, _, err := s.sf.Do(ctx, key, func() (*Plan, error) {
		var (
			p    *Plan
			cerr error
		)
		rerr := s.pool.Run(ctx, func() {
			p, cerr = s.computeRebalance(&req, &base, alg, baseKey, key)
			if cerr == nil {
				s.cache.Put(key, p)
			}
		})
		if rerr != nil {
			return nil, rerr
		}
		return p, cerr
	})
	if err != nil {
		return nil, false, err
	}
	raw, err := plan.appendJSON(nil)
	return raw, false, err
}
