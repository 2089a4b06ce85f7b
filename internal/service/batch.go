package service

import (
	"net/http"
	"time"

	"bisectlb"
)

// POST /v1/balance:batch plans many specs in one request. The point is
// amortisation, not intra-batch parallelism: the batch pays admission
// control (one queue slot), body decoding and response encoding once,
// performs one cache lookup per item, dedups identical specs within the
// batch, and then computes all remaining misses back to back on a single
// worker with one pooled planner whose buffers stay warm. Callers that
// want plans computed in parallel should issue separate requests.
//
// Failure semantics are per item: a malformed spec or a facade rejection
// marks only that item with the same error code a single request would
// have received, while the rest of the batch proceeds. Only batch-level
// problems — bad JSON, an empty or oversized batch, admission rejection,
// the batch deadline expiring — fail the whole request.

// BatchRequest is the body of POST /v1/balance:batch.
type BatchRequest struct {
	// Items are planned independently; order is preserved in the response.
	Items []BalanceRequest `json:"items"`
	// DeadlineMS caps the whole batch's time in queue + compute; 0 uses
	// the server default. Per-item deadline_ms fields are ignored —
	// admission is batch-level.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant identifies the caller when the tenant header is absent.
	// Admission is batch-level, so per-item tenant fields are ignored.
	Tenant string `json:"tenant,omitempty"`
}

// BatchItemError mirrors the single-request error envelope for one item.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchItem is the outcome for one request of a batch: exactly one of
// Plan or Error is set.
type BatchItem struct {
	Plan *Plan `json:"plan,omitempty"`
	// Cached is true when the plan came from the plan cache.
	Cached bool `json:"cached,omitempty"`
	// Deduped is true when the plan was computed once for an identical
	// earlier item of this batch.
	Deduped bool            `json:"deduped,omitempty"`
	Error   *BatchItemError `json:"error,omitempty"`
}

// BatchResponse is the body of a 200 batch response.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
	// Computed counts distinct plans computed for this batch; CacheHits
	// and Deduped count items served without computing.
	Computed  int `json:"computed"`
	CacheHits int `json:"cache_hits"`
	Deduped   int `json:"deduped"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, start time.Time) {
	req := new(BatchRequest)
	if !s.decode(w, r, req) {
		return
	}
	if len(req.Items) == 0 {
		s.badRequest(w, "empty_batch", "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.badRequest(w, "batch_too_large", "batch exceeds the server's max_batch_items limit")
		return
	}
	if req.DeadlineMS < 0 {
		s.badRequest(w, "bad_request", "deadline_ms must be ≥ 0")
		return
	}
	s.reg.Counter(mBatchRequests).Inc()
	s.reg.Counter(mBatchItems).Add(int64(len(req.Items)))
	tn := s.tenants.state(tenantID(r, s.cfg.TenantHeader, req.Tenant))
	tn.requests.Inc()

	resp := BatchResponse{Items: make([]BatchItem, len(req.Items))}
	// miss holds one entry per distinct uncached key, in first-seen order;
	// missIdx maps a key to its position in miss so later identical items
	// attach to the earlier computation.
	type missEntry struct {
		req   *BalanceRequest
		alg   bisectlb.Algorithm
		key   string
		items []int
		plan  *Plan
		err   error
	}
	var miss []*missEntry
	missIdx := make(map[string]int)

	kb := s.keyBufs.Get().(*[]byte)
	keyBytes := (*kb)[:0]
	for i := range req.Items {
		item := &req.Items[i]
		alg, code, err := s.checkSpec(item, nil)
		if err != nil {
			s.reg.Counter(mBadRequest).Inc()
			resp.Items[i].Error = &BatchItemError{Code: code, Message: err.Error()}
			continue
		}
		keyBytes = item.appendKey(keyBytes[:0])
		if plan, ok := s.cache.GetBytes(keyBytes); ok {
			resp.Items[i] = BatchItem{Plan: plan, Cached: true}
			resp.CacheHits++
			continue
		}
		key := string(keyBytes)
		if j, ok := missIdx[key]; ok {
			miss[j].items = append(miss[j].items, i)
			continue
		}
		missIdx[key] = len(miss)
		miss = append(miss, &missEntry{req: item, alg: alg, key: key, items: []int{i}})
	}
	*kb = keyBytes
	s.keyBufs.Put(kb)

	if len(miss) > 0 {
		// The compute path is guarded like a single request's: one token
		// and one admission draw per batch — the batch occupies one
		// worker turn regardless of item count.
		ctx, cancel, ok := s.admit(w, r, tn, start, req.DeadlineMS)
		if !ok {
			return
		}
		defer cancel()

		rerr := s.pool.RunTenant(ctx, tn.id, tn.weight, func() {
			if s.cfg.Hooks.PreCompute != nil {
				s.cfg.Hooks.PreCompute()
			}
			for _, m := range miss {
				m.plan, m.err = computePlan(m.req, m.alg, signature(m.key), s.reg)
				if m.err == nil {
					s.cache.Put(m.key, m.plan)
				}
			}
		})
		if rerr != nil {
			// Admission or deadline failure is batch-level: no partial
			// results exist worth returning.
			s.rejectComputeError(w, rerr)
			return
		}
		for _, m := range miss {
			if m.err != nil {
				_, code, metric, msg := classifyComputeError(m.err)
				s.reg.Counter(metric).Inc()
				for _, i := range m.items {
					resp.Items[i].Error = &BatchItemError{Code: code, Message: msg}
				}
				continue
			}
			resp.Computed++
			for j, i := range m.items {
				resp.Items[i].Plan = m.plan
				if j > 0 {
					resp.Items[i].Deduped = true
					resp.Deduped++
				}
			}
		}
		if resp.Deduped > 0 {
			s.reg.Counter(mBatchDeduped).Add(int64(resp.Deduped))
		}
	}

	if s.respondEncoded(w, "", resp.appendJSON) {
		s.observeAdmitted(tn, start)
	}
}
