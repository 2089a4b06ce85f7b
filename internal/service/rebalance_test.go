package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bisectlb/internal/obs"
)

func postRebalance(t *testing.T, url string, body string) (*http.Response, RebalanceResponse, errorBody) {
	t.Helper()
	resp, err := http.Post(url+"/v1/rebalance", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var ok RebalanceResponse
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

// rebalanceFixture warms a prior plan and derives a drift vector that
// pushes its heaviest splittable part to mult× the mean.
func rebalanceFixture(t *testing.T, url string, n int, mult float64) (BalanceResponse, []DriftDelta) {
	t.Helper()
	resp, prior, _ := postBalance(t, url, fmt.Sprintf(uniformReq, 7, n, "HF"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prior: status %d", resp.StatusCode)
	}
	mean := prior.Total / float64(prior.N)
	best := -1
	for i, pt := range prior.Parts {
		if pt.Procs != 1 {
			continue
		}
		if best < 0 || pt.Weight > prior.Parts[best].Weight {
			best = i
		}
	}
	return prior, []DriftDelta{{ID: prior.Parts[best].ID, Factor: mult * mean / prior.Parts[best].Weight}}
}

func rebalanceBody(n int, sig string, deltas []DriftDelta) string {
	raw, _ := json.Marshal(deltas)
	body := fmt.Sprintf(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":%d,"algorithm":"HF","alpha":0.1,"deltas":%s`, n, raw)
	if sig != "" {
		body += fmt.Sprintf(`,"prior_signature":%q`, sig)
	}
	return body + "}"
}

func TestRebalancePatchesDriftedPlan(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	prior, deltas := rebalanceFixture(t, ts.URL, 64, 12)
	resp, rb, _ := postRebalance(t, ts.URL, rebalanceBody(64, prior.Signature, deltas))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rb.Rebalance == nil || rb.Rebalance.Outcome != "patched" {
		t.Fatalf("rebalance info %+v, want patched", rb.Rebalance)
	}
	if rb.Rebalance.PriorComputed {
		t.Fatal("prior was cached but reported recomputed")
	}
	if !strings.HasSuffix(rb.Algorithm, "+patch") {
		t.Fatalf("algorithm %q, want +patch suffix", rb.Algorithm)
	}
	if rb.Rebalance.Band < 2 {
		t.Fatalf("band %g < 2", rb.Rebalance.Band)
	}
	if rb.Rebalance.Oversize == 0 && rb.Ratio > rb.Rebalance.Band*(1+1e-9) {
		t.Fatalf("patched ratio %g exceeds band %g", rb.Ratio, rb.Rebalance.Band)
	}

	// Group accounting: every part names a valid group, processor totals
	// are conserved, and the drifted weight is conserved.
	gp := rb.Rebalance.GroupProcs
	if len(gp) == 0 {
		t.Fatal("patched plan without group_procs")
	}
	sumProcs, sumPrior := 0, 0
	for _, p := range gp {
		sumProcs += p
	}
	factor := func(id uint64) float64 {
		for _, d := range deltas {
			if d.ID == id {
				return d.Factor
			}
		}
		return 1
	}
	wantTotal := 0.0
	for _, pt := range prior.Parts {
		sumPrior += pt.Procs
		wantTotal += factor(pt.ID) * pt.Weight
	}
	if sumProcs != sumPrior {
		t.Fatalf("group procs sum %d, prior owned %d", sumProcs, sumPrior)
	}
	for _, pt := range rb.Parts {
		if pt.Group < 0 || pt.Group >= len(gp) {
			t.Fatalf("part %d in group %d of %d", pt.ID, pt.Group, len(gp))
		}
	}
	if d := rb.Total - wantTotal; d > 1e-9*wantTotal || d < -1e-9*wantTotal {
		t.Fatalf("patched total %g, drifted prior total %g", rb.Total, wantTotal)
	}

	// The second identical request is a cache hit carrying the same
	// certificate.
	resp2, rb2, _ := postRebalance(t, ts.URL, rebalanceBody(64, prior.Signature, deltas))
	if resp2.StatusCode != http.StatusOK || !rb2.Cached {
		t.Fatalf("repeat: status %d cached %v", resp2.StatusCode, rb2.Cached)
	}
	if rb2.Rebalance == nil || rb2.Rebalance.Outcome != "patched" {
		t.Fatalf("repeat lost the certificate: %+v", rb2.Rebalance)
	}
	if got := reg.Counter(mRebalancePatched).Value(); got != 1 {
		t.Fatalf("patched counter %d, want 1 (cache hit must not recompute)", got)
	}
}

func TestRebalanceZeroDeltaIsNoop(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	prior, _ := rebalanceFixture(t, ts.URL, 64, 12)
	resp, rb, _ := postRebalance(t, ts.URL, rebalanceBody(64, prior.Signature, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rb.Rebalance == nil || rb.Rebalance.Outcome != "noop" {
		t.Fatalf("rebalance info %+v, want noop", rb.Rebalance)
	}
	if len(rb.Parts) != len(prior.Parts) {
		t.Fatalf("noop changed the part count: %d vs %d", len(rb.Parts), len(prior.Parts))
	}
	for i, pt := range rb.Parts {
		if pt.ID != prior.Parts[i].ID || pt.Weight != prior.Parts[i].Weight || pt.Procs != prior.Parts[i].Procs {
			t.Fatalf("noop part %d differs from prior", i)
		}
	}
	if rb.Signature == prior.Signature {
		t.Fatal("noop response reused the prior signature; drift identity lost")
	}
}

func TestRebalanceFullDriftReplans(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Drift one splittable part to 1e6× the mean: it is far outside the
	// band and carries nearly all of the drifted weight, so the dirty
	// weight fraction saturates and the patch degenerates to a fresh plan.
	prior, deltas := rebalanceFixture(t, ts.URL, 64, 1e6)
	resp, rb, _ := postRebalance(t, ts.URL, rebalanceBody(64, prior.Signature, deltas))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rb.Rebalance == nil || rb.Rebalance.Outcome != "full_replan" {
		t.Fatalf("rebalance info %+v, want full_replan", rb.Rebalance)
	}
	if len(rb.Rebalance.GroupProcs) != 0 {
		t.Fatal("full replan reported pooled groups")
	}
}

func TestRebalanceComputesMissingPrior(t *testing.T) {
	regA := obs.NewRegistry()
	srvA := New(Config{Registry: regA})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	defer srvA.Shutdown(context.Background())
	prior, deltas := rebalanceFixture(t, tsA.URL, 64, 12)

	// A second server with a cold cache must replan the prior first.
	regB := obs.NewRegistry()
	srvB := New(Config{Registry: regB})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Shutdown(context.Background())

	resp, rb, _ := postRebalance(t, tsB.URL, rebalanceBody(64, prior.Signature, deltas))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rb.Rebalance == nil || !rb.Rebalance.PriorComputed {
		t.Fatalf("cold prior not reported as recomputed: %+v", rb.Rebalance)
	}
	if got := regB.Counter(mRebalancePriorComputed).Value(); got != 1 {
		t.Fatalf("prior_computed counter %d, want 1", got)
	}
	// The recomputed prior is now cached: a /v1/balance for the same spec
	// hits.
	resp2, bal, _ := postBalance(t, tsB.URL, fmt.Sprintf(uniformReq, 7, 64, "HF"))
	if resp2.StatusCode != http.StatusOK || !bal.Cached {
		t.Fatalf("prior not cached after rebalance: status %d cached %v", resp2.StatusCode, bal.Cached)
	}
}

func TestRebalanceRejections(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	prior, deltas := rebalanceFixture(t, ts.URL, 64, 12)

	cases := []struct {
		name, body, code string
	}{
		{"wrong-prior-signature", rebalanceBody(64, "deadbeef", deltas), "prior_mismatch"},
		{"unknown-part",
			rebalanceBody(64, "", []DriftDelta{{ID: 0xfeed, Factor: 2}}), "unknown_part"},
		{"bad-factor",
			rebalanceBody(64, "", []DriftDelta{{ID: prior.Parts[0].ID, Factor: -1}}), "bad_spec"},
		{"missing-alpha",
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":64,"algorithm":"HF","deltas":[]}`,
			"bad_spec"},
		{"unsupported-family",
			`{"spec":{"family":"fem","seed":7},"n":64,"algorithm":"HF","alpha":0.1,"deltas":[]}`,
			"bad_spec"},
		{"unknown-field",
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":64,"alpha":0.1,"bogus":1}`,
			"bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, bad := postRebalance(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if bad.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", bad.Error.Code, tc.code)
			}
		})
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/rebalance", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestRebalancePatchesParallelAlias pins that a parallel-ba prior is
// planned on the flat path and can be patched: the spelling is an alias
// of BA, so /v1/rebalance no longer rejects it as rebalance_unsupported.
func TestRebalancePatchesParallelAlias(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const spec = `"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":64,"algorithm":"parallel-ba","alpha":0.1`
	resp, prior, bad := postBalance(t, ts.URL, "{"+spec+"}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prior: status %d (%s)", resp.StatusCode, bad.Error.Message)
	}
	heaviest := prior.Parts[0]
	for _, pt := range prior.Parts {
		if pt.Procs == 1 && (heaviest.Procs != 1 || pt.Weight > heaviest.Weight) {
			heaviest = pt
		}
	}
	mean := prior.Total / float64(prior.N)
	raw, _ := json.Marshal([]DriftDelta{{ID: heaviest.ID, Factor: 40 * mean / heaviest.Weight}})
	body := fmt.Sprintf(`{%s,"prior_signature":%q,"deltas":%s}`, spec, prior.Signature, raw)
	resp, rb, bad := postRebalance(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: status %d (%s: %s)", resp.StatusCode, bad.Error.Code, bad.Error.Message)
	}
	if rb.Rebalance == nil || rb.Rebalance.Outcome != "patched" || rb.Rebalance.PriorComputed {
		t.Fatalf("rebalance info %+v, want patched from the cached prior", rb.Rebalance)
	}
	if rb.Algorithm != "BA+patch" {
		t.Fatalf("algorithm %q, want BA+patch", rb.Algorithm)
	}
}

func TestClusterFillRoutesDriftKeys(t *testing.T) {
	srv := New(Config{})
	defer srv.Shutdown(context.Background())

	req := RebalanceRequest{
		Spec:  ProblemSpec{Family: "uniform", Lo: 0.1, Hi: 0.5, Seed: 7},
		N:     64,
		Alpha: 0.1,
	}
	base := req.base()
	base.normalize()
	key := string(driftKeySuffix([]byte(base.cacheKey()), req.Deltas))
	if !isDriftKey(key) {
		t.Fatalf("drift key %q not recognised", key)
	}
	body, _ := json.Marshal(&req)
	raw, cached, err := srv.ClusterFill(context.Background(), key, body)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold fill reported cached")
	}
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("undecodable fill result: %v", err)
	}
	if p.Rebalance == nil || p.Rebalance.Outcome != "noop" {
		t.Fatalf("peer fill lost the certificate: %+v", p.Rebalance)
	}
	// Second fill hits the drift-key cache entry.
	_, cached, err = srv.ClusterFill(context.Background(), key, body)
	if err != nil || !cached {
		t.Fatalf("warm fill: cached %v err %v", cached, err)
	}
}

func TestDriftKeyCanonicalisesDeltas(t *testing.T) {
	a := []DriftDelta{{ID: 2, Factor: 3}, {ID: 1, Factor: 2}}
	b := []DriftDelta{{ID: 1, Factor: 9}, {ID: 2, Factor: 3}, {ID: 1, Factor: 2}}
	ka := string(driftKeySuffix(nil, a))
	kb := string(driftKeySuffix(nil, b))
	if ka != kb {
		t.Fatalf("order/dup-insensitive keys differ: %q vs %q", ka, kb)
	}
	kc := string(driftKeySuffix(nil, []DriftDelta{{ID: 1, Factor: 2}}))
	if ka == kc {
		t.Fatal("different drifts share a key")
	}
}
