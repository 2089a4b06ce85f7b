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
)

func postBatch(t *testing.T, url, body string) (*http.Response, BatchResponse, errorBody) {
	t.Helper()
	resp, err := http.Post(url+"/v1/balance:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var ok BatchResponse
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

// TestBatchPartialFailure is the contract test for per-item failure
// semantics: bad specs, unknown algorithms and facade rejections mark
// only their own item; the valid items still get plans and the response
// is a 200.
func TestBatchPartialFailure(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := `{"items":[
		{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":64,"algorithm":"HF"},
		{"spec":{"family":"nosuch","seed":1},"n":8},
		{"spec":{"family":"fixed","split_alpha":0.3,"seed":0},"n":16,"algorithm":"wat"},
		{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":0,"algorithm":"HF"},
		{"spec":{"family":"list","elems":500,"split_alpha":0.2,"seed":9},"n":32,"algorithm":"BA"}
	]}`
	resp, batch, _ := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial failure must not fail the batch: status %d", resp.StatusCode)
	}
	if len(batch.Items) != 5 {
		t.Fatalf("got %d items, want 5", len(batch.Items))
	}
	wantErrCodes := map[int]string{1: "bad_spec", 2: "unknown_algorithm", 3: "bad_n"}
	for i, item := range batch.Items {
		if code, bad := wantErrCodes[i]; bad {
			if item.Plan != nil || item.Error == nil {
				t.Fatalf("item %d: want error, got %+v", i, item)
			}
			if item.Error.Code != code {
				t.Fatalf("item %d: error code %q, want %q", i, item.Error.Code, code)
			}
			continue
		}
		if item.Error != nil || item.Plan == nil {
			t.Fatalf("item %d: want plan, got error %+v", i, item.Error)
		}
		if len(item.Plan.Parts) == 0 {
			t.Fatalf("item %d: empty plan", i)
		}
	}
	if batch.Computed != 2 {
		t.Fatalf("computed %d plans, want 2", batch.Computed)
	}
}

// TestBatchDedupAndCache checks in-batch dedup (identical items compute
// once) and cross-request caching (a second batch hits the cache).
func TestBatchDedupAndCache(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	item := `{"spec":{"family":"uniform","lo":0.2,"hi":0.5,"seed":11},"n":32,"algorithm":"BA"}`
	body := fmt.Sprintf(`{"items":[%s,%s,%s]}`, item, item, item)
	resp, batch, _ := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if batch.Computed != 1 || batch.Deduped != 2 || batch.CacheHits != 0 {
		t.Fatalf("first batch: computed=%d deduped=%d hits=%d, want 1/2/0",
			batch.Computed, batch.Deduped, batch.CacheHits)
	}
	if batch.Items[0].Deduped || !batch.Items[1].Deduped || !batch.Items[2].Deduped {
		t.Fatalf("dedup flags wrong: %+v", batch.Items)
	}
	for i := 1; i < 3; i++ {
		if batch.Items[i].Plan.Signature != batch.Items[0].Plan.Signature {
			t.Fatalf("deduped item %d has different signature", i)
		}
	}

	resp, batch, _ = postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second batch: status %d", resp.StatusCode)
	}
	if batch.CacheHits != 3 || batch.Computed != 0 {
		t.Fatalf("second batch: hits=%d computed=%d, want 3/0", batch.CacheHits, batch.Computed)
	}
	if v := srv.Registry().Counter(mBatchDeduped).Value(); v != 2 {
		t.Fatalf("batch_deduped metric = %d, want 2", v)
	}
}

// TestBatchMatchesSingleRequests asserts a batch plan is byte-identical
// (modulo the envelope) to the plan the single endpoint serves for the
// same spec.
func TestBatchMatchesSingleRequests(t *testing.T) {
	srv := New(Config{CacheCapacity: -1}) // no cache: both paths compute
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	spec := `{"spec":{"family":"list","elems":777,"split_alpha":0.25,"seed":3},"n":16,"algorithm":"BA-HF","alpha":0.25,"kappa":2}`
	_, single, _ := postBalance(t, ts.URL, spec)
	resp, batch, _ := postBatch(t, ts.URL, `{"items":[`+spec+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, want := batch.Items[0].Plan, single.Plan
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(&want)
	if string(gb) != string(wb) {
		t.Fatalf("batch plan diverged from single plan:\nbatch:  %s\nsingle: %s", gb, wb)
	}
}

func TestBatchRejections(t *testing.T) {
	item := `{"spec":{"family":"fixed","split_alpha":0.3},"n":4}`
	ok := `{"items":[` + item + `]}`
	runRejectionCases(t, "/v1/balance:batch", []rejectionCase{
		{name: "get", method: http.MethodGet, status: 405, code: "method_not_allowed"},
		{name: "draining", body: ok, prep: startDrain, status: 503, code: "draining",
			deltas: map[string]int64{mRejectedDraining: 1}},
		{name: "invalid json", body: `{"items":`, status: 400, code: "bad_request", deltas: badRequest},
		{name: "unknown field", body: `{"itemz":[]}`, status: 400, code: "bad_request", deltas: badRequest},
		{name: "empty batch", body: `{"items":[]}`, status: 400, code: "empty_batch", deltas: badRequest},
		{name: "oversized batch", body: fmt.Sprintf(`{"items":[%s,%s,%s]}`, item, item, item),
			cfg: Config{MaxBatchItems: 2}, status: 400, code: "batch_too_large", deltas: badRequest},
		{name: "negative deadline", body: `{"items":[` + item + `],"deadline_ms":-1}`,
			status: 400, code: "bad_request", deltas: badRequest},
	})
	runRejectionCases(t, "/v1/balance:batch", computeRejections(ok,
		`{"items":[`+item+`],"deadline_ms":20}`, map[string]int64{mBatchRequests: 1}))
}
