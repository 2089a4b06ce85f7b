package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bisectlb"
	"bisectlb/internal/obs"
)

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/balance", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// BenchmarkServiceBalanceCached measures the full HTTP round trip for a
// plan served from the cache — the hot path of a stable workload mix.
func BenchmarkServiceBalanceCached(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	body := `{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":256,"algorithm":"HF","alpha":0.1}`
	benchPost(b, ts.URL, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, body)
	}
}

// BenchmarkServiceBalanceUncached measures the round trip when every
// request needs a fresh computation (distinct seeds defeat the cache).
func BenchmarkServiceBalanceUncached(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, fmt.Sprintf(
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":256,"algorithm":"HF","alpha":0.1}`, i))
	}
}

// BenchmarkServiceKey isolates request canonicalisation + signing — the
// per-request fixed cost paid before any cache lookup (DESIGN.md §10
// tracks its allocation count).
func BenchmarkServiceKey(b *testing.B) {
	req := BalanceRequest{
		Spec:      ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: 9},
		N:         256,
		Algorithm: "ba-hf",
		Alpha:     0.1,
		Kappa:     2,
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = req.appendKey(buf[:0])
		_ = signatureBytes(buf)
	}
}

// BenchmarkServiceBatch measures the full HTTP round trip of a warm
// 16-item batch — the amortised per-item cost to compare against
// BenchmarkServiceBalanceCached.
func BenchmarkServiceBatch(b *testing.B) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	items := make([]string, 16)
	for i := range items {
		items[i] = fmt.Sprintf(
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":256,"algorithm":"HF","alpha":0.1}`, i)
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/balance:batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	post() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkServiceCacheGet isolates the sharded LRU under concurrent
// readers.
func BenchmarkServiceCacheGet(b *testing.B) {
	c := newPlanCache(1024, 16, nil)
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("k%d", i), &Plan{})
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(fmt.Sprintf("k%d", i%512))
			i++
		}
	})
}

// benchEncodePlan is a served HF plan of n parts with the weights,
// depths and ids a real uniform plan carries.
func benchEncodePlan(n int) *Plan {
	req := BalanceRequest{Spec: ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: 3},
		N: n, Algorithm: "HF", Alpha: 0.1}
	req.normalize()
	p, err := computePlan(&req, bisectlb.HFAlgorithm, "c0ffee", obs.NewRegistry())
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkServiceEncode isolates encoding one served balance response
// body into a warm buffer — the per-request cost every hit and miss pays.
func BenchmarkServiceEncode(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			p := benchEncodePlan(n)
			buf, _ := appendResponse(nil, p, false, false)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendResponse(buf[:0], p, false, false)
			}
		})
	}
}
