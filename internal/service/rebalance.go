package service

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
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

// validate rejects drift requests the patch path cannot serve; checkSpec
// runs it after the spec itself has passed BalanceRequest.validate.
// Rebalancing requires the flat planning substrate (the patch re-bisects
// subtrees through the kernel), so only the flat families qualify, and
// the α-band drift rule needs a declared α even for the α-oblivious
// algorithms.
func (r *RebalanceRequest) validate() error {
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
// superseded duplicates share one cache entry. It runs on the handler
// goroutine before admission, so it must stay O(d log d) in the delta
// count d: a stable sort by ID keeps duplicates in arrival order, and
// the last of each run of equal IDs is the one PatchInto applies.
func driftKeySuffix(b []byte, deltas []DriftDelta) []byte {
	sorted := slices.Clone(deltas)
	slices.SortStableFunc(sorted, func(x, y DriftDelta) int { return cmp.Compare(x.ID, y.ID) })
	var enc []byte
	for i, d := range sorted {
		if i+1 < len(sorted) && sorted[i+1].ID == d.ID {
			continue // superseded by a later delta for the same part
		}
		enc = strconv.AppendUint(enc, d.ID, 16)
		enc = append(enc, ':')
		enc = strconv.AppendFloat(enc, d.Factor, 'g', -1, 64)
		enc = append(enc, ';')
	}
	b = append(b, "|drift="...)
	return strconv.AppendUint(b, fnv64a(enc), 16)
}

// isDriftKey reports whether a cache key names a rebalance result: the
// drift digest is appended after the balance identity, and the marker
// never occurs in a balance key.
func isDriftKey(key string) bool { return strings.Contains(key, "|drift=") }

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

// rebalanceJob is a POST /v1/rebalance body with the identity of its
// prior plan: the balance request and cache key the prior is served
// under, and the parsed algorithm.
type rebalanceJob struct {
	req      RebalanceRequest
	prior    BalanceRequest
	priorKey string
	alg      bisectlb.Algorithm
}

func (j *rebalanceJob) compute(s *Server, sig string) (*Plan, error) {
	return s.computeRebalance(&j.req, &j.prior, j.alg, j.priorKey, sig)
}

// check runs checkSpec over the job's prior identity and drift vector.
func (j *rebalanceJob) check(s *Server) (code string, err error) {
	j.prior = j.req.base()
	j.alg, code, err = s.checkSpec(&j.prior, &j.req)
	return code, err
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request, start time.Time) {
	job := new(rebalanceJob)
	if !s.decode(w, r, &job.req) {
		return
	}
	if code, err := job.check(s); err != nil {
		s.badRequest(w, code, err.Error())
		return
	}

	// Canonical identities: the prior plan's key (what /v1/balance would
	// cache) and the drift key extending it with the delta digest.
	kb := s.keyBufs.Get().(*[]byte)
	*kb = job.prior.appendKey((*kb)[:0])
	job.priorKey = string(*kb)
	if job.req.PriorSignature != "" && job.req.PriorSignature != signature(job.priorKey) {
		s.keyBufs.Put(kb)
		s.badRequest(w, "prior_mismatch",
			fmt.Sprintf("prior_signature %q does not match this spec's plan signature %q",
				job.req.PriorSignature, signature(job.priorKey)))
		return
	}
	*kb = driftKeySuffix(*kb, job.req.Deltas)
	// In cluster mode the drift key hashes to an owner, and a remotely
	// owned miss ships the whole rebalance request to it (ClusterFill
	// routes drift keys back to computeRebalance).
	s.serve(w, r, start, kb, job, &job.req, job.req.Tenant, job.req.DeadlineMS)
}

// computeRebalance fetches or recomputes the flat prior plan and patches
// it against the drift vector, serving the result under the drift key's
// signature sig. base is the prior's normalized identity, whose α and κ
// parameterise the patch. Runs on a worker; callers cache the result
// under the drift key.
func (s *Server) computeRebalance(req *RebalanceRequest, base *BalanceRequest, alg bisectlb.Algorithm, baseKey, sig string) (*Plan, error) {
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
	opt := bisectlb.PatchOptions{Alpha: base.Alpha, Kappa: base.Kappa}

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
