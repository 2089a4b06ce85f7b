package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// warmServer computes nSeeds distinct plans so the cache has content.
func warmServer(t *testing.T, srv *Server, nSeeds int) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for seed := 0; seed < nSeeds; seed++ {
		resp, _, bad := postBalance(t, ts.URL, balanceBody(seed, 16, "HF"))
		if resp.StatusCode != 200 {
			t.Fatalf("warmup seed %d: %d %s", seed, resp.StatusCode, bad.Error.Message)
		}
	}
}

func balanceBody(seed, n int, alg string) string {
	return `{"spec":{"family":"uniform","lo":0.3,"hi":0.5,"seed":` +
		itoa(seed) + `},"n":` + itoa(n) + `,"algorithm":"` + alg + `"}`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSnapshotRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	warmServer(t, srv, 8)
	if srv.cache.Len() != 8 {
		t.Fatalf("warm cache has %d entries, want 8", srv.cache.Len())
	}

	var buf bytes.Buffer
	if err := srv.WriteCacheSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh server restores every plan; the first request for a
	// restored key is a cache hit, not a recomputation.
	srv2 := New(Config{Workers: 2})
	defer srv2.Shutdown(context.Background())
	n, err := srv2.RestoreCacheSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 8 {
		t.Fatalf("restore = %d, %v; want 8, nil", n, err)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	resp, ok, _ := postBalance(t, ts.URL, balanceBody(3, 16, "HF"))
	if resp.StatusCode != 200 {
		t.Fatalf("restored request: %d", resp.StatusCode)
	}
	if !ok.Cached {
		t.Fatal("restored key should hit the cache")
	}
	snap := srv2.Registry().Snapshot()
	if snap.Counters[mCacheRestored] != 8 {
		t.Fatalf("cache_restored = %d, want 8", snap.Counters[mCacheRestored])
	}
}

func TestSnapshotSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.snapshot")
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	warmServer(t, srv, 5)
	if n, err := srv.SaveCacheSnapshot(path); err != nil || n != 5 {
		t.Fatalf("save = %d, %v; want 5, nil", n, err)
	}

	srv2 := New(Config{Workers: 2})
	defer srv2.Shutdown(context.Background())
	if n, err := srv2.LoadCacheSnapshot(path); err != nil || n != 5 {
		t.Fatalf("load = %d, %v; want 5, nil", n, err)
	}
	if srv2.cache.Len() != 5 {
		t.Fatalf("restored cache has %d entries, want 5", srv2.cache.Len())
	}
}

func TestSnapshotMissingFileIsEmpty(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	if n, err := srv.LoadCacheSnapshot(filepath.Join(t.TempDir(), "absent")); n != 0 || err != nil {
		t.Fatalf("missing snapshot = %d, %v; want 0, nil", n, err)
	}
}

func TestSnapshotRejectsBadInput(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	if _, err := srv.RestoreCacheSnapshot(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
	if _, err := srv.RestoreCacheSnapshot(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Fatal("future version accepted")
	}
	// Corrupt entries (empty key, null plan) are skipped, not restored.
	entries := `[{"key":"","plan":{}},{"key":"k","plan":null}]`
	n, err := srv.RestoreCacheSnapshot(strings.NewReader(fmt.Sprintf(
		`{"version":2,"crc32":%d,"entries":%s}`, crc32.ChecksumIEEE([]byte(entries)), entries)))
	if err != nil || n != 0 {
		t.Fatalf("corrupt entries restore = %d, %v; want 0, nil", n, err)
	}
	// Entries that do not match the envelope's checksum are rejected.
	n, err = srv.RestoreCacheSnapshot(strings.NewReader(
		`{"version":2,"crc32":1,"entries":[{"key":"k","plan":{"algorithm":"HF","n":1,"parts":[]}}]}`))
	if !errors.Is(err, ErrSnapshotChecksum) || n != 0 || srv.cache.Len() != 0 {
		t.Fatalf("checksum mismatch restore = %d, %v (cache %d); want 0, ErrSnapshotChecksum", n, err, srv.cache.Len())
	}
}

func TestSnapshotPreservesRecencyOrder(t *testing.T) {
	// A one-shard cache with capacity 4 warmed with 4 plans: snapshotting
	// and restoring into another capacity-4 cache, then adding one more
	// plan, must evict the least recently used original — proving the
	// restore replayed LRU order rather than scrambling it.
	srv := New(Config{Workers: 1, CacheCapacity: 4, CacheShards: 1})
	defer srv.Shutdown(context.Background())
	warmServer(t, srv, 4)

	var buf bytes.Buffer
	if err := srv.WriteCacheSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{Workers: 1, CacheCapacity: 4, CacheShards: 1})
	defer srv2.Shutdown(context.Background())
	if n, err := srv2.RestoreCacheSnapshot(&buf); err != nil || n != 4 {
		t.Fatalf("restore = %d, %v; want 4, nil", n, err)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	// Insert a fifth plan, evicting exactly the oldest (seed 0).
	if resp, _, _ := postBalance(t, ts.URL, balanceBody(99, 16, "HF")); resp.StatusCode != 200 {
		t.Fatal("fifth insert failed")
	}
	for seed := 1; seed < 4; seed++ {
		_, ok, _ := postBalance(t, ts.URL, balanceBody(seed, 16, "HF"))
		if !ok.Cached {
			t.Fatalf("seed %d should have survived the eviction", seed)
		}
	}
	req := BalanceRequest{Spec: ProblemSpec{Family: "uniform", Lo: 0.3, Hi: 0.5, Seed: 0}, N: 16, Algorithm: "HF"}
	req.normalize()
	if _, ok := srv2.cache.Get(req.cacheKey()); ok {
		t.Fatal("seed 0 (least recently used) should have been evicted")
	}
}
