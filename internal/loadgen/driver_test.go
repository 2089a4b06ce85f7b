package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastLoad is a one-request-per-millisecond run of n requests.
func fastLoad(n int, targets ...string) Load {
	return Load{Targets: targets, RPS: 1000, Duration: time.Duration(n) * time.Millisecond}
}

// recordingDriver returns a driver whose Sleep records its delays
// instead of sleeping.
func recordingDriver() (*Driver, func() []time.Duration) {
	d := NewDriver()
	var mu sync.Mutex
	var slept []time.Duration
	d.Sleep = func(delay time.Duration) {
		mu.Lock()
		slept = append(slept, delay)
		mu.Unlock()
	}
	return d, func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), slept...)
	}
}

func okServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestShedBackoff(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"1", time.Second},
		{"5", maxRetryAfter}, // capped
		{"0", defaultRetryAfter},
		{"-3", defaultRetryAfter},
		{"soon", defaultRetryAfter},
		{"", defaultRetryAfter},
	} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		d, slept := recordingDriver()
		l := fastLoad(1, srv.URL)
		l.ShedRetries = 2
		st := d.Drive(l, func(int) Shot { return Shot{Body: "{}"} })
		srv.Close()
		if hits.Load() != 3 || st.Retries != 2 || st.Rejected429 != 3 {
			t.Errorf("Retry-After %q: %d attempts, %d retries, %d 429s; want 3, 2, 3",
				tc.header, hits.Load(), st.Retries, st.Rejected429)
		}
		if st.Sheds != 1 || st.Failed != 0 || st.OK != 0 {
			t.Errorf("Retry-After %q: sheds %d failed %d ok %d; want the shed counted apart from failures",
				tc.header, st.Sheds, st.Failed, st.OK)
		}
		if got := slept(); len(got) != 2 || got[0] != tc.want || got[1] != tc.want {
			t.Errorf("Retry-After %q: slept %v, want 2 × %v", tc.header, got, tc.want)
		}
	}
}

func TestShedRetryThenServed(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	d, slept := recordingDriver()
	l := fastLoad(1, srv.URL)
	l.ShedRetries = 2
	st := d.Drive(l, func(int) Shot { return Shot{Body: "{}"} })
	if st.OK != 1 || st.Sheds != 0 || st.Retries != 1 || st.Rejected429 != 1 || len(slept()) != 1 {
		t.Fatalf("ok %d sheds %d retries %d 429s %d sleeps %d; want 1 0 1 1 1",
			st.OK, st.Sheds, st.Retries, st.Rejected429, len(slept()))
	}
}

func TestNoShedRetryWithZeroBound(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	d, slept := recordingDriver()
	st := d.Drive(fastLoad(3, srv.URL), func(int) Shot { return Shot{Body: "{}"} })
	if hits.Load() != 3 || st.Sheds != 3 || st.Retries != 0 || len(slept()) != 0 {
		t.Fatalf("attempts %d sheds %d retries %d sleeps %d; want 3 3 0 0",
			hits.Load(), st.Sheds, st.Retries, len(slept()))
	}
}

// deadURL is the URL of a server that was started and closed, so a
// connection to it is refused.
func deadURL() string {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

func TestFailoverOnRefusedConnection(t *testing.T) {
	var hits atomic.Int64
	good := okServer(t, &hits)
	d, _ := recordingDriver()
	// Request 0 starts at the dead target and fails over; request 1
	// starts at the live one.
	st := d.Drive(fastLoad(2, deadURL(), good.URL), func(int) Shot { return Shot{Body: "{}"} })
	if st.OK != 2 || st.Failed != 0 || st.Retries != 1 || hits.Load() != 2 {
		t.Fatalf("ok %d failed %d retries %d hits %d; want 2 0 1 2", st.OK, st.Failed, st.Retries, hits.Load())
	}

	st = d.Drive(fastLoad(1, deadURL()), func(int) Shot { return Shot{Body: "{}"} })
	if st.Failed != 1 || st.Sent != 1 || len(st.samples) != 0 {
		t.Fatalf("single dead target: failed %d sent %d answered %d; want 1 1 0", st.Failed, st.Sent, len(st.samples))
	}
}

func TestFailoverOn503(t *testing.T) {
	var hits atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	good := okServer(t, &hits)
	d, _ := recordingDriver()
	st := d.Drive(fastLoad(2, draining.URL, good.URL), func(int) Shot { return Shot{Body: "{}"} })
	if st.OK != 2 || st.Rejected503 != 0 || st.Retries != 1 || hits.Load() != 2 {
		t.Fatalf("ok %d 503s %d retries %d hits %d; want 2 0 1 2", st.OK, st.Rejected503, st.Retries, hits.Load())
	}

	// With no other target the 503 is final: a hard failure.
	st = d.Drive(fastLoad(1, draining.URL), func(int) Shot { return Shot{Body: "{}"} })
	if st.Rejected503 != 1 || st.Failed != 1 || st.Retries != 0 {
		t.Fatalf("single draining target: 503s %d failed %d retries %d; want 1 1 0", st.Rejected503, st.Failed, st.Retries)
	}
}

func TestWarmupExcluded(t *testing.T) {
	var hits atomic.Int64
	srv := okServer(t, &hits)
	d, _ := recordingDriver()
	var drawn atomic.Int64
	l := Load{Targets: []string{srv.URL}, RPS: 100, Warmup: 50 * time.Millisecond, Duration: 80 * time.Millisecond}
	st := d.Drive(l, func(int) Shot { drawn.Add(1); return Shot{Body: "{}"} })
	if drawn.Load() != 13 || hits.Load() != 13 {
		t.Fatalf("drew %d, server saw %d; want 5 warm-up + 8 recorded = 13", drawn.Load(), hits.Load())
	}
	if st.Sent != 8 || st.OK != 8 || len(st.samples) != 8 {
		t.Fatalf("recorded sent %d ok %d samples %d; want 8 each", st.Sent, st.OK, len(st.samples))
	}
}

func TestNearestRank(t *testing.T) {
	st := &Stats{}
	for _, lat := range []int64{15, 3, 8, 42, 23, 4, 16, 7, 1, 9} {
		st.samples = append(st.samples, sample{answered: true, status: http.StatusOK, lat: lat})
	}
	// Sorted: 1 3 4 7 8 9 15 16 23 42. Nearest rank ⌈p·10/100⌉:
	// p50 → 5th = 8, p90 → 9th = 23, p99 → 10th = 42.
	want := latSumm{P50: 8, P90: 23, P99: 42, Max: 42, Mean: 12.8}
	if got := st.latency(isOK); got != want {
		t.Fatalf("latency summary %+v, want %+v", got, want)
	}
	lats := make([]int64, 200)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	// ⌈0.99·200⌉ = 198; ⌈0.5·200⌉ = 100.
	if p99, p50 := nearestRank(lats, 99), nearestRank(lats, 50); p99 != 198 || p50 != 100 {
		t.Fatalf("n=200: p99 %d p50 %d, want 198 100", p99, p50)
	}
	if got := nearestRank([]int64{7}, 99); got != 7 {
		t.Fatalf("single sample p99 %d, want 7", got)
	}
	if got := (&Stats{}).latency(anyAnswer); got != (latSumm{}) {
		t.Fatalf("empty summary %+v, want zero", got)
	}
}

func TestPerTenantOK(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get("X-Lbserve-Tenant") {
		case "hog":
			w.WriteHeader(http.StatusTooManyRequests)
		case "":
			w.WriteHeader(http.StatusBadRequest)
		default:
			w.Header().Set("X-Lbserve-Cache", "hit")
		}
	}))
	defer srv.Close()
	tenants := []string{"a", "hog", "b", "a", "hog", "", "a"}
	d, _ := recordingDriver()
	st := d.Drive(fastLoad(len(tenants), srv.URL), func(i int) Shot { return Shot{Tenant: tenants[i], Body: "{}"} })
	okFor := func(tenant string) int64 {
		return st.count(func(x sample) bool { return isOK(x) && x.tenant == tenant })
	}
	if okFor("a") != 3 || okFor("b") != 1 || okFor("hog") != 0 {
		t.Fatalf("ok a=%d b=%d hog=%d, want 3 1 0", okFor("a"), okFor("b"), okFor("hog"))
	}
	if st.OK != 4 || st.Sheds != 2 || st.Failed != 1 || st.count(isHit) != 4 || st.count(isMiss) != 0 {
		t.Fatalf("ok %d sheds %d failed %d hits %d misses %d; want 4 2 1 4 0",
			st.OK, st.Sheds, st.Failed, st.count(isHit), st.count(isMiss))
	}
}
