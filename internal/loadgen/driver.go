// Package loadgen drives the balancing service with open-loop HTTP load
// and runs the serving studies built on it: the load smoke, the X8
// worker × cache sweep, the X11 SLO study, the X13 cluster study, the X14
// rebalance study and the bench gate (EXPERIMENTS.md). cmd/lbload is its
// command-line front end: flag parsing plus a lookup in Studies.
//
// Every study sends its traffic through one open-loop driver,
// Driver.Drive. It fires requests at a fixed rate without waiting for
// responses (the discipline that exposes queueing collapse), records
// every answered request's latency exactly, and reports nearest-rank
// quantiles. A 429 is retried after its Retry-After up to a per-run
// bound; with several targets a connection error or a 503 fails over to
// the next target.
package loadgen

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Shed-backoff bounds: a 429 sleeps what the server's Retry-After asks
// for, capped so a misbehaving server cannot stall the generator.
const (
	maxRetryAfter     = 2 * time.Second
	defaultRetryAfter = 100 * time.Millisecond
)

// Shot is one generated request: a /v1/balance body and the tenant
// header value ("" sends none).
type Shot struct{ Tenant, Body string }

// Load is the shape of one open-loop run.
type Load struct {
	// Targets are lbserve base URLs; request i starts at Targets[i mod
	// len] and fails over to the following ones.
	Targets []string
	RPS     int
	// The first RPS·Warmup requests are sent but not recorded.
	Warmup, Duration time.Duration
	// ShedRetries bounds how often one request is retried after a 429.
	ShedRetries int
}

// Driver fires open-loop POST /v1/balance traffic.
type Driver struct {
	Client *http.Client
	// Sleep waits out a 429's Retry-After.
	Sleep func(time.Duration)
}

// NewDriver returns a driver whose client keeps enough idle connections
// for an open-loop burst.
func NewDriver() *Driver {
	return &Driver{Client: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
	}, Sleep: time.Sleep}
}

// Stats aggregates the recorded (post-warm-up) requests of one run.
// Failed counts requests no target answered or whose final status is
// neither 200 nor 429; Sheds counts final 429s, load shedding working as
// designed. Retries counts every backoff and failover, Rejected429 every
// 429 response.
type Stats struct {
	Sent, OK, Failed, Sheds, Retries, Rejected429, Rejected503 int64
	// Elapsed runs from the first recorded send to the last answer.
	Elapsed time.Duration

	mu      sync.Mutex
	samples []sample // answered requests
}

// sample is one request's fate after its retries and failovers.
type sample struct {
	answered      bool
	lat           int64 // ns from the first send to the final answer
	status        int
	hit           bool // served from the plan cache
	tenant        string
	retries, r429 int64
}

// Drive fires RPS·(Warmup+Duration) requests open-loop, drawing request i
// from next, and returns the stats of those past the warm-up.
func (d *Driver) Drive(l Load, next func(i int) Shot) *Stats {
	st := &Stats{}
	warm := int(float64(l.RPS) * l.Warmup.Seconds())
	total := warm + int(float64(l.RPS)*l.Duration.Seconds())
	ticker := time.NewTicker(time.Second / time.Duration(l.RPS))
	defer ticker.Stop()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		<-ticker.C
		if i == warm {
			start = time.Now()
		}
		wg.Add(1)
		go func(i int, sh Shot) {
			defer wg.Done()
			if x := d.do(l, i, sh); i >= warm {
				st.add(x)
			}
		}(i, next(i))
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	return st
}

func (d *Driver) do(l Load, i int, sh Shot) sample {
	x := sample{tenant: sh.Tenant}
	t0 := time.Now()
	for shed, hops := 0, 0; ; {
		req, err := http.NewRequest(http.MethodPost, l.Targets[(i+hops)%len(l.Targets)]+"/v1/balance", strings.NewReader(sh.Body))
		if err != nil {
			return x
		}
		req.Header.Set("Content-Type", "application/json")
		if sh.Tenant != "" {
			req.Header.Set("X-Lbserve-Tenant", sh.Tenant)
		}
		resp, err := d.Client.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			// Connection refused, reset or cut mid-answer: the target
			// may be dead.
			if hops < len(l.Targets)-1 {
				hops++
				x.retries++
				continue
			}
			return x
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			x.r429++
			if shed < l.ShedRetries {
				shed++
				x.retries++
				d.Sleep(retryAfterDelay(resp.Header))
				continue
			}
		}
		if resp.StatusCode == http.StatusServiceUnavailable && hops < len(l.Targets)-1 {
			// Draining or dying node: another target can serve this.
			hops++
			x.retries++
			continue
		}
		x.answered, x.lat, x.status = true, time.Since(t0).Nanoseconds(), resp.StatusCode
		x.hit = resp.Header.Get("X-Lbserve-Cache") == "hit"
		return x
	}
}

// retryAfterDelay parses a 429's Retry-After header (delta-seconds form)
// into a bounded sleep.
func retryAfterDelay(h http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return defaultRetryAfter
	}
	return min(time.Duration(secs)*time.Second, maxRetryAfter)
}

func (s *Stats) add(x sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Sent++
	s.Retries += x.retries
	s.Rejected429 += x.r429
	if !x.answered {
		s.Failed++
		return
	}
	s.samples = append(s.samples, x)
	switch x.status {
	case http.StatusOK:
		s.OK++
	case http.StatusTooManyRequests:
		s.Sheds++
	case http.StatusServiceUnavailable:
		s.Rejected503++
		s.Failed++
	default:
		s.Failed++
	}
}

// Sample filters for Stats.count and Stats.latency.
func anyAnswer(sample) bool { return true }
func isOK(x sample) bool    { return x.status == http.StatusOK }
func isHit(x sample) bool   { return isOK(x) && x.hit }
func isMiss(x sample) bool  { return isOK(x) && !x.hit }

// count counts the answered requests keep selects.
func (s *Stats) count(keep func(sample) bool) int64 {
	var n int64
	for _, x := range s.samples {
		if keep(x) {
			n++
		}
	}
	return n
}

// latSumm is a latency summary in nanoseconds.
type latSumm struct {
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	P99  int64   `json:"p99"`
	Max  int64   `json:"max"`
	Mean float64 `json:"mean"`
}

// latency summarises the latencies of the answered requests keep selects.
func (s *Stats) latency(keep func(sample) bool) latSumm {
	var lats []int64
	var sum float64
	for _, x := range s.samples {
		if keep(x) {
			lats = append(lats, x.lat)
			sum += float64(x.lat)
		}
	}
	if len(lats) == 0 {
		return latSumm{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latSumm{
		P50:  nearestRank(lats, 50),
		P90:  nearestRank(lats, 90),
		P99:  nearestRank(lats, 99),
		Max:  lats[len(lats)-1],
		Mean: sum / float64(len(lats)),
	}
}

// nearestRank is the pct-th percentile of sorted by the nearest-rank
// rule: the ⌈pct·n/100⌉-th smallest value.
func nearestRank(sorted []int64, pct int) int64 {
	return sorted[max((pct*len(sorted)+99)/100, 1)-1]
}
