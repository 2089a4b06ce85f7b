package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"bisectlb/internal/obs"
	"bisectlb/internal/service"
)

// maxConns caps the client's keep-alive connections: one per core of
// the 2-core reference machine, matching the server's default worker
// count there.
const maxConns = 2

// clients is the closed-loop client count of a serve workload. One
// request in flight keeps the figures steady on two cores: with two
// clients the client, server and GC goroutines contend for both cores,
// and whole runs settle into a fast or a slow schedule ~10% apart.
const clients = 1

// familyHeader tells the traced handler which family a request plans,
// so handler time can be split per family. The service ignores it.
const familyHeader = "X-Perfbench-Family"

// harness is one in-process lbserve behind a loopback listener, plus
// the keep-alive client that drives it.
type harness struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
	// traced wraps the service handler on --trace 1 runs; nil otherwise,
	// so untraced runs serve through Server.Handler() alone.
	traced *tracedHandler
}

func newHarness(trace bool) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{srv: service.New(service.Config{}), served: make(chan error, 1)}
	handler := h.srv.Handler()
	if trace {
		h.traced = newTracedHandler(handler)
		handler = h.traced
	}
	h.hs = &http.Server{Handler: handler}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.url = "http://" + ln.Addr().String()
	h.tr = &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}
	h.client = &http.Client{Transport: h.tr, Timeout: 30 * time.Second}
	return h, nil
}

// close stops the listener, drains the server and waits for Serve to
// return.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.tr.CloseIdleConnections()
	if err := h.hs.Shutdown(ctx); err != nil {
		fmt.Printf("note: http shutdown: %v\n", err)
	}
	if err := <-h.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("note: serve: %v\n", err)
	}
	if err := h.srv.Shutdown(ctx); err != nil {
		fmt.Printf("note: service shutdown: %v\n", err)
	}
}

// tracing reports whether the traced half of the window is running.
func (h *harness) tracing() bool { return h.traced != nil && h.traced.on.Load() }

// post sends body to path, reads the whole response into buf and returns
// the service's cache state for it. A non-200 answer is an error.
func (h *harness) post(path string, body []byte, family string, buf *bytes.Buffer) (string, error) {
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if family != "" {
		req.Header.Set(familyHeader, family)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", fmt.Errorf("%s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, msg)
	}
	return resp.Header.Get("X-Lbserve-Cache"), nil
}

// metricz reads the service's metric registry through GET /metricz.
func (h *harness) metricz() (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := h.client.Get(h.url + "/metricz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metricz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("/metricz: %w", err)
	}
	return s, nil
}

// delta is the change of /metricz between two snapshots. Histograms are
// read only through their exact sum and count, never their log2-bucket
// quantiles.
type delta struct{ a, b obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// meanMs is the mean of the nanosecond observations a histogram took
// between the snapshots, in milliseconds, or 0 when it took none.
func (d delta) meanMs(name string) float64 {
	sum, n := d.sumNs(name)
	if n == 0 {
		return 0
	}
	return sum / n / 1e6
}

func (d delta) sumNs(name string) (sum, count float64) {
	a, b := d.a.Histograms[name], d.b.Histograms[name]
	return float64(b.Sum - a.Sum), float64(b.Count - a.Count)
}

// serveWorkload is what a serve workload plugs into runServe.
type serveWorkload struct {
	// setUp does the deterministic set-up work against a fresh server.
	setUp func(h *harness) error
	// warmOps is the untimed op count run before the window.
	warmOps int64
	// request builds op i: the path, the body and the family it plans.
	request func(i int64) (path string, body []byte, family string)
	// wantCache is the cache state every op must be answered from.
	wantCache string
	// keep, when set, sees every successful op's response body; it must
	// copy what it retains.
	keep func(i int64, body []byte)
	// premise checks the /metricz change over the timed windows against
	// the workload's premise.
	premise func(d delta) error
	// verify checks served plans outside the timed window and returns
	// their ratios and the number that failed.
	verify func(h *harness) (ratios []float64, failed int64)
	// layers, when set, adds the workload's own traced per-layer metrics
	// after the traced window.
	layers func(m metrics, rc *reconciler) error
}

// runServe runs a serve workload: repeated set-up, warm-up, the timed
// window (split into an untraced and a traced half on --trace 1),
// verification, and the report.
func runServe(o options, sw serveWorkload) (*result, error) {
	h, setupS, err := medianSetUp(setUpReps, func() (*harness, error) {
		h, err := newHarness(o.trace)
		if err != nil {
			return nil, err
		}
		if err := sw.setUp(h); err != nil {
			h.close()
			return nil, err
		}
		return h, nil
	}, (*harness).close)
	if err != nil {
		return nil, err
	}
	defer h.close()

	var hits, bytesIn atomic.Int64
	bufs := make([]bytes.Buffer, clients)
	op := func(c int, i int64) error {
		path, body, family := sw.request(i)
		if !h.tracing() {
			family = ""
		}
		cache, err := h.post(path, body, family, &bufs[c])
		if err != nil {
			return err
		}
		bytesIn.Add(int64(bufs[c].Len()))
		if cache == "hit" {
			hits.Add(1)
		}
		if cache != sw.wantCache {
			return fmt.Errorf("%s answered from cache state %q, want %q", path, cache, sw.wantCache)
		}
		if sw.keep != nil {
			sw.keep(i, bufs[c].Bytes())
		}
		return nil
	}

	var next atomic.Int64
	warm := measure(clients, &next, time.Hour, sw.warmOps, op)
	runtime.GC()
	m0, err := h.metricz()
	if err != nil {
		return nil, err
	}
	var windows []*window
	var layer metrics
	var rc reconciler
	var rss float64
	if !o.trace {
		w := measure(clients, &next, o.window(), 0, op)
		windows = append(windows, &w)
		if rss, err = peakRSSMiB(); err != nil {
			return nil, err
		}
	} else {
		w1 := measure(clients, &next, o.window()/2, 0, op)
		mid, err := h.metricz()
		if err != nil {
			return nil, err
		}
		hits0, bytes0 := hits.Load(), bytesIn.Load()
		h.traced.on.Store(true)
		w2 := measure(clients, &next, o.window()/2, 0, op)
		h.traced.on.Store(false)
		end, err := h.metricz()
		if err != nil {
			return nil, err
		}
		windows = append(windows, &w1, &w2)
		layer = metrics{}
		runtimeLayer(layer, &w1)
		ops := float64(w2.ops())
		layer["trace.overhead_ratio"] = w2.throughput() / w1.throughput()
		layer["service.cache_hit_ratio"] = float64(hits.Load()-hits0) / ops
		layer["service.resp_kb_per_op"] = float64(bytesIn.Load()-bytes0) / 1024 / ops
		h.traced.layers(layer, &w2, delta{mid, end}, &rc)
		if sw.layers != nil {
			if err := sw.layers(layer, &rc); err != nil {
				return nil, err
			}
		}
	}
	m1, err := h.metricz()
	if err != nil {
		return nil, err
	}

	attempted, failed := warm.attempted, warm.failed
	for _, w := range windows {
		attempted += w.attempted
		failed += w.failed
	}
	correct := true
	if err := sw.premise(delta{m0, m1}); err != nil {
		say("premise: FAILED: %v", err)
		correct = false
	}
	ratios, bad := sw.verify(h)
	failed += bad
	say("verify: %d plans checked, %d failed", len(ratios)+int(bad), bad)
	res := &result{Correct: correct && failed == 0 && !rc.failed, Attempted: attempted, Failed: failed}
	if o.trace {
		res.Metrics, err = finish(layer, perLayerUnits)
	} else {
		res.Metrics, err = endToEnd(windows[0], rss, setupS, geomean(ratios), attempted, failed)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(res.Metrics)
	return res, nil
}
