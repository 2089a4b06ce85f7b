package service

import (
	"context"
	"encoding/json"
	"fmt"
)

// PeerCluster is the slice of a cluster node the serving path needs:
// ownership routing, the remote fetch, hot-key accounting and the
// health view. *cluster.Node implements it; the interface exists so
// service does not import cluster (cluster already calls back into
// service through Config callbacks, and a cycle would force a merge of
// two layers that test independently).
type PeerCluster interface {
	// Owner returns the owning peer address for a key hash and whether
	// it is this node.
	Owner(hash uint64) (addr string, self bool)
	// Fetch asks the owner for the plan, shipping the canonical request
	// body so the owner can compute on a miss. The bool reports a
	// cluster-wide cache hit.
	Fetch(ctx context.Context, key string, hash uint64, body []byte) (plan []byte, cached bool, err error)
	// Touch records a hit on an owned key for hot-key replication.
	Touch(key string, hash uint64)
	// Healthz returns the peer/ring view for /healthz.
	Healthz() map[string]any
}

// SetCluster attaches the server to a cluster node. It must be called
// before the server starts serving (the field is read without locking
// on the request path). A nil cluster (the default) serves standalone.
func (s *Server) SetCluster(pc PeerCluster) { s.cluster = pc }

// clusterFetch proxies a miss to the key's remote owner, shipping the
// request body, and installs the returned plan in the local cache, so
// repeat hits on this node stay local. Runs under the caller's
// singleflight slot, so concurrent local misses on one key cost one peer
// round trip.
func (s *Server) clusterFetch(ctx context.Context, pc PeerCluster, key string, hash uint64, req any) (*Plan, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	raw, cached, err := pc.Fetch(ctx, key, hash, body)
	if err != nil {
		return nil, false, err
	}
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, false, fmt.Errorf("service: owner returned an undecodable plan for %q: %w", key, err)
	}
	s.reg.Counter(mClusterProxied).Inc()
	s.cache.Put(key, &p)
	s.reg.Counter(mClusterPeerPlans).Inc()
	return &p, cached, nil
}

// ClusterFill is the owner-side fill handed to cluster.Config.Fill:
// serve the plan for key from the local cache, or check the shipped
// request body and compute it through the same singleflight and worker
// pool as a local request — so a storm of proxied misses for one key
// still runs the planner once, and peer traffic respects the pool's
// queue bound. Owner fills run as the anonymous tenant, without tenant
// tokens, SLO admission or the PreCompute hook.
func (s *Server) ClusterFill(ctx context.Context, key string, body []byte) ([]byte, bool, error) {
	if p, ok := s.cache.Get(key); ok {
		raw, err := p.appendJSON(nil)
		return raw, true, err
	}
	job, err := s.peerJob(key, body)
	if err != nil {
		return nil, false, err
	}
	sig := signature(key)
	plan, _, err := s.sf.Do(ctx, key, func() (*Plan, error) {
		return s.computeOnWorker(ctx, nil, key, sig, job)
	})
	if err != nil {
		return nil, false, err
	}
	raw, err := plan.appendJSON(nil)
	return raw, false, err
}

// peerJob decodes and checks a peer's request body. Drift keys carry a
// rebalance body, not a balance body: decoding them as a BalanceRequest
// would silently drop the deltas and cache a fresh plan under the drift
// key.
func (s *Server) peerJob(key string, body []byte) (planJob, error) {
	if isDriftKey(key) {
		job := new(rebalanceJob)
		if err := json.Unmarshal(body, &job.req); err != nil {
			return nil, fmt.Errorf("service: peer rebalance body: %w", err)
		}
		if _, err := job.check(s); err != nil {
			return nil, err
		}
		job.priorKey = job.prior.cacheKey()
		return job, nil
	}
	job := new(balanceJob)
	if err := json.Unmarshal(body, &job.req); err != nil {
		return nil, fmt.Errorf("service: peer fill body: %w", err)
	}
	var err error
	job.alg, _, err = s.checkSpec(&job.req, nil)
	return job, err
}

// ClusterStore installs a plan replicated from a peer (cluster hot-key
// replication) into the local cache. Undecodable payloads are rejected.
func (s *Server) ClusterStore(key string, plan []byte) bool {
	if key == "" {
		return false
	}
	var p Plan
	if err := json.Unmarshal(plan, &p); err != nil {
		return false
	}
	s.cache.Put(key, &p)
	return true
}

// ClusterLoad reads a cache entry back for replication, without
// promoting it or touching the hit/miss counters (a replication read is
// not client traffic).
func (s *Server) ClusterLoad(key string) ([]byte, bool) {
	p, ok := s.cache.Peek(key)
	if !ok {
		return nil, false
	}
	raw, err := p.appendJSON(nil)
	if err != nil {
		return nil, false
	}
	return raw, true
}
