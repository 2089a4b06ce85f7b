package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// encodeWithEncoder returns what json.NewEncoder(w).Encode writes for v.
func encodeWithEncoder(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// fuzzPlan builds a plan whose every float, string and optional member
// comes from the fuzzer. shape selects the optional structure: bit 0 a
// nil Parts, bit 1 an empty non-nil Parts (else two parts), bit 2 a
// rebalance certificate, bit 3 its GroupProcs nil (else bit 4 empty,
// else two groups).
func fuzzPlan(alg, sig, outcome string, w, total, ratio, guarantee, band float64, id uint64, n, group int, shape uint8) *Plan {
	p := &Plan{
		Algorithm: alg, N: n, Total: total, Max: w, Ratio: ratio, Guarantee: guarantee,
		Bisections: n - 1, MaxDepth: -n, Signature: sig,
	}
	switch {
	case shape&1 != 0:
	case shape&2 != 0:
		p.Parts = []PartPlan{}
	default:
		p.Parts = []PartPlan{
			{ID: id, Weight: w, Procs: n, Depth: group, Group: group},
			{ID: ^id, Weight: -w, Procs: 1, Depth: 0},
		}
	}
	if shape&4 != 0 {
		r := &RebalanceInfo{Outcome: outcome, Band: band, Dirty: group, DirtyWeightFrac: ratio,
			Splits: n, Oversize: -group, PriorComputed: shape&32 != 0}
		switch {
		case shape&8 != 0:
		case shape&16 != 0:
			r.GroupProcs = []int{}
		default:
			r.GroupProcs = []int{n, group}
		}
		p.Rebalance = r
	}
	return p
}

// FuzzPlanJSON pins the reflection-free encoders to encoding/json byte
// for byte: Plan against json.Marshal (the peer bytes), BalanceResponse,
// RebalanceResponse and BatchResponse against Encoder.Encode (the served
// bodies). A non-finite float must fail both sides, and the appenders
// must leave b unchanged when they fail.
func FuzzPlanJSON(f *testing.F) {
	below := math.Nextafter(1e-6, 0)
	above := math.Nextafter(1e-6, 1)
	f.Add("HF", "9f3a", "patched", 0.25, 1.0, 1.5, 2.0, 2.0, uint64(1), 64, 0, uint8(0), "")
	f.Add("BA-HF(κ=2)", "", "noop", 1e-6, below, above, -1e-6, 1e21, uint64(1<<63), 1, 3, uint8(4|16), "x")
	f.Add("PHF", "s", "full_replan", math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), 5e-324,
		-5e-324, math.MaxFloat64, uint64(0), 0, -2, uint8(4|8|32), "")
	f.Add("BA", "sig", "", math.Copysign(0, -1), -math.MaxFloat64, 1e-7, math.Copysign(0, -1), 123456789.125,
		^uint64(0), -7, 1, uint8(1|4), `"quoted" \back\slash`)
	f.Add("<b>&amp;</b>", "a\u2028b\u2029c", "\x00\x01\x08\x0c\n\r\t\x1f\x7f", 1e-300, 1e300, 3.0, 0.0, 0.1,
		uint64(42), 5, 0, uint8(2|4), "bad\xff\xfeutf8\xc3")
	f.Add("é中😀", "\xed\xa0\x80", "\u2027\u202a", math.NaN(), 1.0, 1.0, 0.0, 2.0, uint64(1), 2, 0, uint8(0), "")
	f.Add("HF", "", "", 1.0, math.Inf(1), 1.0, 0.0, 2.0, uint64(1), 2, 0, uint8(1), "")
	f.Add("HF", "", "patched", 1.0, 1.0, 1.0, 0.0, math.Inf(-1), uint64(1), 2, 0, uint8(1|4), "")
	f.Fuzz(func(t *testing.T, alg, sig, outcome string, w, total, ratio, guarantee, band float64,
		id uint64, n, group int, shape uint8, msg string) {
		p := fuzzPlan(alg, sig, outcome, w, total, ratio, guarantee, band, id, n, group, shape)
		prefix := []byte("prefix")
		check := func(what string, want []byte, werr error, got []byte, gerr error) {
			t.Helper()
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s: encoding/json error %v, appender error %v", what, werr, gerr)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("%s: appender disturbed the caller's prefix: %q", what, got)
			}
			got = got[len(prefix):]
			if werr != nil {
				if len(got) != 0 {
					t.Fatalf("%s: failed appender wrote %q", what, got)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s:\nencoding/json %s\nappender      %s", what, want, got)
			}
		}

		want, werr := json.Marshal(p)
		got, gerr := p.appendJSON(bytes.Clone(prefix))
		check("Plan", want, werr, got, gerr)

		cached, coalesced := shape&64 != 0, shape&128 != 0
		want, werr = encodeWithEncoder(BalanceResponse{Plan: *p, Cached: cached, Coalesced: coalesced})
		got, gerr = appendResponse(bytes.Clone(prefix), p, cached, coalesced)
		check("BalanceResponse", want, werr, got, gerr)
		want, werr = encodeWithEncoder(RebalanceResponse{Plan: *p, Cached: cached, Coalesced: coalesced})
		check("RebalanceResponse", want, werr, got, gerr)

		batch := BatchResponse{Computed: n, CacheHits: group, Deduped: -n}
		if shape&1 == 0 {
			batch.Items = []BatchItem{
				{Plan: p},
				{Plan: p, Cached: cached, Deduped: coalesced},
				{Error: &BatchItemError{Code: outcome, Message: msg}, Deduped: cached},
				{},
			}
		}
		want, werr = encodeWithEncoder(batch)
		got, gerr = batch.appendJSON(bytes.Clone(prefix))
		check("BatchResponse", want, werr, got, gerr)
	})
}

// TestPlanEncodeAllocationFree pins the served-plan encoder's cost: a
// 1024-part plan appended into a warm buffer allocates nothing.
func TestPlanEncodeAllocationFree(t *testing.T) {
	p := benchEncodePlan(1024)
	buf, err := appendResponse(nil, p, false, false)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf, err = appendResponse(buf[:0], p, false, false)
	})
	if err != nil || allocs != 0 {
		t.Fatalf("appendResponse: %v allocs/run, err %v; want 0, nil", allocs, err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		buf, err = p.appendJSON(buf[:0])
	})
	if err != nil || allocs != 0 {
		t.Fatalf("appendJSON: %v allocs/run, err %v; want 0, nil", allocs, err)
	}
}

// TestNonFinitePlanIsInternalError serves a cached plan with a NaN ratio.
// encoding/json cannot encode it; the request must fail as a typed 500
// before any plan byte is written, and count as an internal error, not
// as a served plan.
func TestNonFinitePlanIsInternalError(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := fmt.Sprintf(uniformReq, 7, 8, "HF")
	var req BalanceRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	req.normalize()
	srv.cache.Put(req.cacheKey(), &Plan{Algorithm: "HF", N: 8, Parts: []PartPlan{{ID: 1, Weight: 1, Procs: 8}},
		Total: 1, Max: 1, Ratio: math.NaN()})

	ok0 := srv.reg.Counter(mOK).Value()
	internal0 := srv.reg.Counter(mInternalErrors).Value()
	resp, _, bad := postBalance(t, ts.URL, body)
	if resp.StatusCode != http.StatusInternalServerError || bad.Error.Code != "internal" {
		t.Fatalf("status %d code %q, want 500 internal", resp.StatusCode, bad.Error.Code)
	}
	if d := srv.reg.Counter(mInternalErrors).Value() - internal0; d != 1 {
		t.Fatalf("service.internal_errors moved by %d, want 1", d)
	}
	if d := srv.reg.Counter(mOK).Value() - ok0; d != 0 {
		t.Fatalf("service.ok moved by %d, want 0", d)
	}
}

// TestPlanResponsesAreSized checks that every served-plan endpoint sends
// its body as one sized write: Content-Length set, no chunked encoding.
func TestPlanResponsesAreSized(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	spec := `"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":1024,"algorithm":"HF","alpha":0.1`
	for _, c := range []struct{ path, body string }{
		{"/v1/balance", "{" + spec + "}"},
		{"/v1/balance", "{" + spec + "}"}, // cache hit
		{"/v1/rebalance", "{" + spec + `,"deltas":[]}`},
		{"/v1/balance:batch", `{"items":[{` + spec + `},{` + spec + `}]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", c.path, resp.StatusCode, err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(got)) {
			t.Fatalf("%s: transfer encoding %v, Content-Length %d for a %d-byte body",
				c.path, resp.TransferEncoding, resp.ContentLength, len(got))
		}
		if !json.Valid(got) || got[len(got)-1] != '\n' {
			t.Fatalf("%s: body is not one newline-terminated JSON value", c.path)
		}
	}
}
