package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakePeers is a PeerCluster over in-process servers. With self set it
// owns every key; otherwise every key belongs to owner, whose
// ClusterFill answers the fetch, and a nil owner is unreachable.
type fakePeers struct {
	self  bool
	owner *Server

	mu      sync.Mutex
	touched []string
}

func (f *fakePeers) Owner(uint64) (string, bool) { return "owner:1", f.self }

func (f *fakePeers) Fetch(ctx context.Context, key string, _ uint64, body []byte) ([]byte, bool, error) {
	if f.owner == nil {
		return nil, false, errors.New("owner unreachable")
	}
	return f.owner.ClusterFill(ctx, key, body)
}

func (f *fakePeers) Touch(key string, _ uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.touched = append(f.touched, key)
}

func (f *fakePeers) Healthz() map[string]any { return map[string]any{"peers": 1} }

// TestClusterRoutes drives /v1/balance and /v1/rebalance through the
// four cluster routes of a cache miss: a self-owned key (computed here
// and touched for hot-key accounting), a remote owner computing it
// (peer-miss), a remote owner that already holds it (peer-hit, served
// as cached) and an unreachable owner (failover to local compute). The
// owner's ClusterFill serves the balance key and the drift key alike,
// and every route serves the same plan. Repeated requests then hit the
// local cache, and each hit on a self-owned key is touched too, so N
// hits after the miss make N+1 touches; a remotely-owned key is never
// touched.
func TestClusterRoutes(t *testing.T) {
	fixture := New(Config{})
	ts := httptest.NewServer(fixture.Handler())
	_, deltas := rebalanceFixture(t, ts.URL, 64, 12)
	ts.Close()
	fixture.Shutdown(context.Background())

	balance := BalanceRequest{Spec: ProblemSpec{Family: "uniform", Lo: 0.1, Hi: 0.5, Seed: 7},
		N: 64, Algorithm: "HF", Alpha: 0.1}
	balance.normalize()
	rebalance := RebalanceRequest{Spec: balance.Spec, N: 64, Algorithm: "HF", Alpha: 0.1, Deltas: deltas}
	for _, ep := range []struct {
		path, body, key string
	}{
		{"/v1/balance", mustJSON(t, &balance), balance.cacheKey()},
		{"/v1/rebalance", mustJSON(t, &rebalance),
			string(driftKeySuffix([]byte(balance.cacheKey()), deltas))},
	} {
		t.Run(ep.path, func(t *testing.T) {
			owner := New(Config{})
			defer owner.Shutdown(context.Background())
			var want []byte
			for _, rt := range []struct {
				name     string
				peers    *fakePeers
				state    string
				cached   bool
				counters map[string]int64
			}{
				{"self", &fakePeers{self: true}, "miss", false,
					map[string]int64{mClusterProxied: 0, mClusterFailover: 0}},
				{"peer-miss", &fakePeers{owner: owner}, "peer-miss", false,
					map[string]int64{mClusterProxied: 1, mClusterPeerPlans: 1, mPlansComputed: 0}},
				{"peer-hit", &fakePeers{owner: owner}, "peer-hit", true,
					map[string]int64{mClusterProxied: 1, mClusterPeerPlans: 1, mPlansComputed: 0}},
				{"failover", &fakePeers{}, "miss", false,
					map[string]int64{mClusterFailover: 1, mClusterProxied: 0}},
			} {
				srv := New(Config{})
				srv.SetCluster(rt.peers)
				h := srv.Handler()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.body)))
				const hits = 3
				for i := 0; i < hits; i++ {
					hit := httptest.NewRecorder()
					h.ServeHTTP(hit, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.body)))
					if got := hit.Header().Get("X-Lbserve-Cache"); hit.Code != http.StatusOK || got != "hit" {
						t.Fatalf("%s: repeat %d: status %d, cache state %q", rt.name, i, hit.Code, got)
					}
				}
				srv.Shutdown(context.Background())
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", rt.name, rec.Code, rec.Body.String())
				}
				if got := rec.Header().Get("X-Lbserve-Cache"); got != rt.state {
					t.Fatalf("%s: cache state %q, want %q", rt.name, got, rt.state)
				}
				var resp RebalanceResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Cached != rt.cached {
					t.Fatalf("%s: cached %v, want %v", rt.name, resp.Cached, rt.cached)
				}
				if (resp.Rebalance != nil) != (ep.path == "/v1/rebalance") {
					t.Fatalf("%s: rebalance certificate %+v on %s", rt.name, resp.Rebalance, ep.path)
				}
				plan, _ := json.Marshal(&resp.Plan)
				if want == nil {
					want = plan
				} else if string(plan) != string(want) {
					t.Fatalf("%s: plan differs from the self-owned one:\n got %s\nwant %s", rt.name, plan, want)
				}
				counters := srv.Registry().Snapshot().Counters
				for name, v := range rt.counters {
					if counters[name] != v {
						t.Fatalf("%s: %s = %d, want %d", rt.name, name, counters[name], v)
					}
				}
				wantTouches := 0
				if rt.peers.self {
					wantTouches = 1 + hits
				}
				if len(rt.peers.touched) != wantTouches {
					t.Fatalf("%s: touched %d times (%q), want %d", rt.name, len(rt.peers.touched), rt.peers.touched, wantTouches)
				}
				for _, k := range rt.peers.touched {
					if k != ep.key {
						t.Fatalf("%s: touched %q, want %q", rt.name, k, ep.key)
					}
				}
				if _, ok := srv.cache.Peek(ep.key); !ok {
					t.Fatalf("%s: plan not cached under %q", rt.name, ep.key)
				}
			}
			if _, ok := owner.cache.Peek(ep.key); !ok {
				t.Fatalf("owner did not cache %q", ep.key)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
