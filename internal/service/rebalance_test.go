package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
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
	fixture := New(Config{})
	ts := httptest.NewServer(fixture.Handler())
	prior, deltas := rebalanceFixture(t, ts.URL, 64, 12)
	ts.Close()
	fixture.Shutdown(context.Background())
	// warm serves the prior plan, so a patch finds it in the cache.
	warm := func(t *testing.T, srv *Server) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/balance",
			strings.NewReader(fmt.Sprintf(uniformReq, 7, 64, "HF"))))
		if rec.Code != http.StatusOK {
			t.Fatalf("prior: status %d", rec.Code)
		}
	}
	const spec = `"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7}`
	ok := rebalanceBody(64, "", deltas)
	// Rejections raised while computing the prior plan.
	priorFailed := map[string]int64{mTenantRequests: 1, mCacheMisses: 2, mPlansComputed: 1, mBadRequest: 1}
	runRejectionCases(t, "/v1/rebalance", []rejectionCase{
		{name: "get", method: http.MethodGet, status: 405, code: "method_not_allowed"},
		{name: "draining", body: ok, prep: startDrain, status: 503, code: "draining",
			deltas: map[string]int64{mRejectedDraining: 1}},
		{name: "invalid json", body: `{"spec":`, status: 400, code: "bad_request", deltas: badRequest},
		{name: "unknown-field", body: `{` + spec + `,"n":64,"alpha":0.1,"bogus":1}`,
			status: 400, code: "bad_request", deltas: badRequest},
		{name: "bad-factor",
			body:   rebalanceBody(64, "", []DriftDelta{{ID: prior.Parts[0].ID, Factor: -1}}),
			status: 400, code: "bad_spec", deltas: badRequest},
		{name: "missing-alpha", body: `{` + spec + `,"n":64,"algorithm":"HF","deltas":[]}`,
			status: 400, code: "bad_spec", deltas: badRequest},
		{name: "unsupported-family",
			body:   `{"spec":{"family":"fem","seed":7},"n":64,"algorithm":"HF","alpha":0.1,"deltas":[]}`,
			status: 400, code: "bad_spec", deltas: badRequest},
		{name: "n too large", body: ok, cfg: Config{MaxN: 63}, status: 400, code: "n_too_large", deltas: badRequest},
		{name: "unknown algorithm", body: `{` + spec + `,"n":64,"algorithm":"quantum","alpha":0.1}`,
			status: 400, code: "unknown_algorithm", deltas: badRequest},
		// Checked before the cache lookup, so it counts no miss.
		{name: "wrong-prior-signature", body: rebalanceBody(64, "deadbeef", deltas),
			status: 400, code: "prior_mismatch", deltas: badRequest},
		{name: "unknown-part", body: rebalanceBody(64, "", []DriftDelta{{ID: 0xfeed, Factor: 2}}), prep: warm,
			status: 400, code: "unknown_part",
			deltas: map[string]int64{mTenantRequests: 1, mCacheMisses: 1, mCacheHits: 1, mBadRequest: 1}},
		{name: "bad kappa", body: `{` + spec + `,"n":64,"algorithm":"BA-HF","alpha":0.1,"kappa":-1}`,
			status: 400, code: "bad_kappa", deltas: priorFailed},
		{name: "bad n", body: `{` + spec + `,"n":0,"alpha":0.1}`,
			status: 400, code: "bad_n", deltas: priorFailed},
	}, map[string]int64{mRebalanceRequests: 1})
	runRejectionCases(t, "/v1/rebalance", computeRejections(ok,
		`{`+spec+`,"n":64,"alpha":0.1,"deadline_ms":20}`, nil),
		map[string]int64{mRebalanceRequests: 1})
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

// driftKeySuffixReference is the quadratic first-seen dedup that
// driftKeySuffix replaced, kept as the reference its key bytes must
// match.
func driftKeySuffixReference(b []byte, deltas []DriftDelta) []byte {
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

// TestDriftKeyMatchesReference checks the sort-based drift key against
// the reference dedup on random vectors whose IDs repeat often, and that
// it leaves the caller's delta order alone.
func TestDriftKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		ids := 1 + rng.Intn(n+1) // few distinct IDs: duplicates are common
		deltas := make([]DriftDelta, n)
		for i := range deltas {
			deltas[i] = DriftDelta{ID: uint64(rng.Intn(ids)) * 0x9e3779b97f4a7c15, Factor: float64(rng.Intn(8)+1) / 4}
		}
		orig := slices.Clone(deltas)
		prefix := []byte("f=uniform")
		got := driftKeySuffix(slices.Clone(prefix), deltas)
		want := driftKeySuffixReference(slices.Clone(prefix), deltas)
		if string(got) != string(want) {
			t.Fatalf("deltas %v: key %q, reference %q", deltas, got, want)
		}
		if !slices.Equal(deltas, orig) {
			t.Fatalf("driftKeySuffix reordered the request's deltas")
		}
	}
}
