package service

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// FuzzSpecKey checks the request-canonicalisation contract under
// arbitrary field values: appendKey is deterministic, append-safe
// (extends the caller's buffer without disturbing its prefix), agrees
// with cacheKey, its byte and string signatures coincide, and normalize
// is idempotent — the properties the plan cache, the coalescing group
// and the batch dedup map all lean on.
func FuzzSpecKey(f *testing.F) {
	f.Add("uniform", 1.0, 0.1, 0.5, 0.0, 0, "", uint64(1), 8, "HF", 0.1, 0.0)
	f.Add("fixed", 2.5, 0.0, 0.0, 0.3, 0, "", uint64(0), 64, "ba-hf", 0.3, 2.0)
	f.Add("list", 0.0, 0.0, 0.0, 0.25, 1000, "", uint64(9), 16, " PHF ", 0.25, 0.0)
	f.Add("quadrature", 0.0, 0.0, 0.0, 0.0, 0, "midpoint", uint64(3), 4, "BA", 0.0, 1.0)
	f.Add("", -1.0, 2.0, -3.0, 9.9, -5, "weird", uint64(1<<63), -2, "\x00\xff", -0.5, -1.0)
	f.Fuzz(func(t *testing.T, family string, weight, lo, hi, sa float64, elems int,
		split string, seed uint64, n int, alg string, alpha, kappa float64) {
		req := BalanceRequest{
			Spec: ProblemSpec{Family: family, Weight: weight, Lo: lo, Hi: hi,
				SplitAlpha: sa, Elems: elems, Split: split, Seed: seed},
			N: n, Algorithm: alg, Alpha: alpha, Kappa: kappa,
		}
		req.normalize()
		again := req
		again.normalize()
		// Compare canonical keys, not structs: NaN-valued fields are
		// never equal to themselves, but canonicalise identically.
		if again.cacheKey() != req.cacheKey() {
			t.Fatalf("normalize not idempotent: %+v vs %+v", req, again)
		}

		key1 := req.appendKey(nil)
		key2 := req.appendKey(nil)
		if !bytes.Equal(key1, key2) {
			t.Fatalf("appendKey not deterministic: %q vs %q", key1, key2)
		}
		if req.cacheKey() != string(key1) {
			t.Fatalf("cacheKey %q != appendKey %q", req.cacheKey(), key1)
		}
		prefix := []byte("prefix|")
		ext := req.appendKey(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(ext, prefix) || !bytes.Equal(ext[len(prefix):], key1) {
			t.Fatalf("appendKey disturbed the caller's buffer: %q", ext)
		}
		if signatureBytes(key1) != signature(string(key1)) {
			t.Fatalf("signature mismatch: bytes %s, string %s",
				signatureBytes(key1), signature(string(key1)))
		}
	})
}

// FuzzHandlers throws arbitrary JSON bodies at the three POST endpoints
// through the real mux and asserts the serving contract: no panic, and
// every response is either a 200 carrying valid JSON or a typed error
// envelope with a non-empty code. The endpoint selector picks
// /v1/balance, /v1/balance:batch or /v1/rebalance (modulo 3). The server
// runs with a small MaxN so a fuzzer-crafted n cannot turn one request
// into unbounded compute — the hardening this target motivated.
func FuzzHandlers(f *testing.F) {
	srv := New(Config{Workers: 2, MaxN: 256, DefaultDeadline: time.Second})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()
	const (
		balance   = uint8(0)
		batch     = uint8(1)
		rebalance = uint8(2)
	)
	endpoints := [...]string{"/v1/balance", "/v1/balance:batch", "/v1/rebalance"}

	f.Add([]byte(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":8}`), balance)
	f.Add([]byte(`{"items":[{"spec":{"family":"fixed","split_alpha":0.3},"n":4,"algorithm":"BA"}]}`), batch)
	f.Add([]byte(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":1000000000}`), balance)
	f.Add([]byte(`{"spec":{"family":"list","elems":-1,"split_alpha":0.9},"n":0}`), balance)
	f.Add([]byte(`{"items":[]}`), batch)
	f.Add([]byte(`{"unknown_field":true}`), balance)
	f.Add([]byte(`[1,2,3]`), batch)
	f.Add([]byte(`{"spec":{"family":"fem","seed":7},"n":3,"algorithm":"parallel-PHF","alpha":0.2}`), balance)
	// Rebalance: a patch of the n=64 prior's heaviest part, an unknown
	// part, duplicate deltas (the last wins), a bad factor and a family
	// with no flat kernel to patch.
	const prior = `"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":64,"alpha":0.1`
	f.Add([]byte(`{`+prior+`,"deltas":[{"id":1764616547477860985,"factor":12}]}`), rebalance)
	f.Add([]byte(`{`+prior+`,"deltas":[{"id":1,"factor":2}]}`), rebalance)
	f.Add([]byte(`{`+prior+`,"deltas":[{"id":1764616547477860985,"factor":3},{"id":1764616547477860985,"factor":12}]}`), rebalance)
	f.Add([]byte(`{`+prior+`,"deltas":[{"id":1764616547477860985,"factor":-1}]}`), rebalance)
	f.Add([]byte(`{"spec":{"family":"graph","seed":7},"n":8,"alpha":0.1,"deltas":[]}`), rebalance)
	f.Fuzz(func(t *testing.T, body []byte, endpoint uint8) {
		path := endpoints[int(endpoint)%len(endpoints)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		raw := rec.Body.Bytes()
		if rec.Code == 200 {
			var any json.RawMessage
			if err := json.Unmarshal(raw, &any); err != nil {
				t.Fatalf("200 response is not valid JSON: %v\n%s", err, raw)
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("status %d response is not an error envelope: %v\n%s", rec.Code, err, raw)
		}
		if eb.Error.Code == "" {
			t.Fatalf("status %d error envelope has empty code: %s", rec.Code, raw)
		}
	})
}

// TestMaxNRejected pins the admission bound FuzzHandlers relies on: a
// request whose n exceeds Config.MaxN is rejected with n_too_large
// before any compute, on both the single and the batch endpoint.
func TestMaxNRejected(t *testing.T) {
	srv := New(Config{Workers: 1, MaxN: 100})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/balance", bytes.NewReader([]byte(
		`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":101}`))))
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "n_too_large" {
		t.Fatalf("got %s (err %v), want code n_too_large", rec.Body.Bytes(), err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/balance:batch", bytes.NewReader([]byte(
		`{"items":[{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":100},`+
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":101}]}`))))
	if rec.Code != 200 {
		t.Fatalf("batch status %d, want 200", rec.Code)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Error != nil || br.Items[0].Plan == nil {
		t.Fatalf("in-bound item rejected: %+v", br.Items[0])
	}
	if br.Items[1].Error == nil || br.Items[1].Error.Code != "n_too_large" {
		t.Fatalf("out-of-bound item not rejected: %+v", br.Items[1])
	}
}

// FuzzSnapshotRestore checks the warm-restart contract of the plan-cache
// snapshot. Arbitrary bytes restored into an empty server never panic,
// and a decode, version or checksum error restores nothing. The same
// bytes then script a populated cache — each byte puts a plan under one
// of 16 keys, or, with its top bit set, touches a key's recency — into a
// cache small enough to evict; snapshotting it and restoring into a
// fresh server of the same shape must reproduce its keys, plans and LRU
// order exactly, while the snapshot with one byte of its entries flipped
// (position and bits drawn from the input) restores nothing.
func FuzzSnapshotRestore(f *testing.F) {
	cfg := Config{Workers: 1, CacheCapacity: 8, CacheShards: 2}
	newServer := func(t *testing.T) *Server {
		srv := New(cfg)
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		return srv
	}
	f.Add([]byte(`{"version":1,"entries":[{"key":"k","plan":{"algorithm":"HF","n":1,"parts":[]}}]}`))
	f.Add([]byte(`{"version":2,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"","plan":{}},{"key":"k","plan":null}]}`))
	f.Add([]byte{0x01, 0x02, 0x03, 0x81, 0x04, 0x11, 0x21, 0x31, 0x41, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := newServer(t)
		if n, err := srv.RestoreCacheSnapshot(bytes.NewReader(data)); err != nil && (n != 0 || srv.cache.Len() != 0) {
			t.Fatalf("failed restore (%v) restored %d entries, cache holds %d", err, n, srv.cache.Len())
		}

		src := newServer(t)
		for i, b := range data {
			key := "k" + strconv.Itoa(int(b&0x0f))
			if b&0x80 != 0 {
				src.cache.Get(key)
				continue
			}
			src.cache.Put(key, &Plan{Algorithm: "HF", N: i + 1, Total: float64(b), Signature: key,
				Parts: []PartPlan{{ID: uint64(b), Weight: float64(i), Procs: 1}}})
		}
		var buf bytes.Buffer
		if err := src.WriteCacheSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		flipped := bytes.Clone(buf.Bytes())
		start := bytes.Index(flipped, []byte(`"entries":`)) + len(`"entries":`)
		end := bytes.LastIndexByte(flipped, '}')
		if start < len(`"entries":`) || end <= start {
			t.Fatalf("no entries in snapshot %q", flipped)
		}
		sum := crc32.ChecksumIEEE(data)
		flipped[start+int(sum%uint32(end-start))] ^= byte(sum>>8) | 1
		bad := newServer(t)
		if n, err := bad.RestoreCacheSnapshot(bytes.NewReader(flipped)); err == nil || n != 0 || bad.cache.Len() != 0 {
			t.Fatalf("snapshot with a flipped entries byte restored %d entries (err %v), cache holds %d", n, err, bad.cache.Len())
		}

		dst := newServer(t)
		want := src.cache.entries()
		if n, err := dst.RestoreCacheSnapshot(&buf); err != nil || n != len(want) {
			t.Fatalf("restore = %d, %v; want %d, nil", n, err, len(want))
		}
		if got := dst.cache.entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored cache differs:\n got %+v\nwant %+v", got, want)
		}
	})
}
