package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"bisectlb/internal/obs"
	"bisectlb/internal/service"
	"bisectlb/internal/xrand"
)

// specPool is the number of distinct problem specs in the mix, so
// repeated identities exercise the plan cache; loadShedRetries bounds
// the 429 retries of the mixed-load runs.
const (
	specPool        = 8
	loadShedRetries = 2
)

// report is the outcome of one mixed-load run, in both renderable and
// JSON-encodable form. Durations are nanoseconds.
type report struct {
	Target      string     `json:"target"`
	TargetRPS   int        `json:"target_rps"`
	DurationSec float64    `json:"duration_s"`
	Requests    int64      `json:"requests"`
	OK          int64      `json:"ok"`
	Failed      int64      `json:"failed"`
	Sheds       int64      `json:"sheds"`
	Retries     int64      `json:"retries"`
	Rejected429 int64      `json:"rejected_429"`
	Rejected503 int64      `json:"rejected_503"`
	AchievedRPS float64    `json:"achieved_rps"`
	Latency     latSumm    `json:"latency_ns"`
	HitLatency  latSumm    `json:"hit_latency_ns"`
	MissLatency latSumm    `json:"miss_latency_ns"`
	Cache       cacheRp    `json:"cache"`
	Cluster     *clusterRp `json:"cluster,omitempty"`
}

// clusterRp aggregates the cluster-mode counters across every target of
// a multi-target run.
type clusterRp struct {
	Proxied            int64 `json:"proxied"`
	FailoverLocal      int64 `json:"failover_local"`
	PlansComputed      int64 `json:"plans_computed"`
	MetricsUnreachable int   `json:"metrics_unreachable,omitempty"`
}

type cacheRp struct {
	ClientHits int64   `json:"client_observed_hits"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	HitRate    float64 `json:"hit_rate"`
	Coalesced  int64   `json:"coalesced"`
}

// mix holds the request distribution: a bounded pool of spec bodies so
// identities repeat, crossed with algorithm and N draws.
type mix struct {
	rng    *xrand.Source
	bodies []string
}

func newMix(seed uint64) *mix {
	rng := xrand.New(seed)
	algs := []string{"HF", "HF", "BA", "PHF", "BA-HF"} // HF-weighted, all α-aware paths covered
	ns := []int{16, 64, 256, 1024}
	bodies := make([]string, specPool)
	for i := range bodies {
		alg := algs[rng.Intn(len(algs))]
		n := ns[rng.Intn(len(ns))]
		if rng.Intn(4) == 0 {
			bodies[i] = fmt.Sprintf(
				`{"spec":{"family":"list","elems":%d,"split_alpha":0.2,"seed":%d},"n":%d,"algorithm":%q,"alpha":0.2}`,
				1000+rng.Intn(4000), rng.Intn(1000), n, alg)
		} else {
			bodies[i] = fmt.Sprintf(
				`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":%d,"algorithm":%q,"alpha":0.1}`,
				rng.Intn(1000), n, alg)
		}
	}
	return &mix{rng: rng, bodies: bodies}
}

func (m *mix) next(int) Shot { return Shot{Body: m.bodies[m.rng.Intn(len(m.bodies))]} }

// runLoad drives the seeded mix over the targets and assembles the
// report, with cache and cluster counters from the targets' /metricz.
func (d *Driver) runLoad(targets []string, rps int, duration time.Duration, seed uint64) (*report, error) {
	if rps < 1 {
		return nil, fmt.Errorf("rps must be ≥ 1, got %d", rps)
	}
	// Preflight: an already-dead member of a fleet is tolerated the way a
	// mid-run death is (skipped in aggregation, served around by
	// failover) as long as some target is up.
	before := make(map[string]obs.Snapshot, len(targets))
	for _, t := range targets {
		if sn, err := d.fetchMetrics(t); err == nil {
			before[t] = sn
		} else {
			fmt.Fprintf(os.Stderr, "lbload: target %s unreachable at start: %v\n", t, err)
		}
	}
	if len(before) == 0 {
		return nil, fmt.Errorf("no target reachable (of %d); start lbserve first, or pass -inprocess", len(targets))
	}

	st := d.Drive(Load{Targets: targets, RPS: rps, Duration: duration, ShedRetries: loadShedRetries}, newMix(seed).next)

	// Aggregate server-side counters across every target still
	// reachable; a target killed mid-run is counted as unreachable.
	delta := make(map[string]int64)
	unreachable := 0
	for _, t := range targets {
		b, ok := before[t]
		if !ok {
			unreachable++
			continue
		}
		after, err := d.fetchMetrics(t)
		if err != nil {
			unreachable++
			continue
		}
		for k, v := range after.Counters {
			delta[k] += v - b.Counters[k]
		}
	}
	if unreachable == len(targets) {
		return nil, fmt.Errorf("no target reachable after the run")
	}
	hits, misses := delta["service.cache_hits"], delta["service.cache_misses"]
	rep := &report{
		Target:      strings.Join(targets, ","),
		TargetRPS:   rps,
		DurationSec: duration.Seconds(),
		Requests:    st.Sent,
		OK:          st.OK,
		Failed:      st.Failed,
		Sheds:       st.Sheds,
		Retries:     st.Retries,
		Rejected429: st.Rejected429,
		Rejected503: st.Rejected503,
		AchievedRPS: float64(st.OK) / st.Elapsed.Seconds(),
		Latency:     st.latency(anyAnswer),
		HitLatency:  st.latency(isHit),
		MissLatency: st.latency(isMiss),
		Cache: cacheRp{
			ClientHits: st.count(isHit),
			Hits:       hits,
			Misses:     misses,
			HitRate:    ratio(float64(hits), float64(hits+misses)),
			Coalesced:  delta["service.singleflight_coalesced"],
		},
	}
	if len(targets) > 1 {
		rep.Cluster = &clusterRp{
			Proxied:            delta["service.cluster.proxied"],
			FailoverLocal:      delta["service.cluster.failover_local"],
			PlansComputed:      delta["service.plans_computed"],
			MetricsUnreachable: unreachable,
		}
	}
	return rep, nil
}

func (d *Driver) fetchMetrics(target string) (obs.Snapshot, error) {
	resp, err := d.Client.Get(target + "/metricz")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var sn obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return obs.Snapshot{}, err
	}
	return sn, nil
}

// postJSON fires one POST and decodes the body into out, or discards it
// when out is nil. Non-200 statuses are errors.
func (d *Driver) postJSON(url, path, body string, out any) error {
	resp, err := d.Client.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, msg)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (r *report) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lbload: %d rps for %.0fs against %s (open loop)\n", r.TargetRPS, r.DurationSec, r.Target)
	fmt.Fprintf(&b, "  requests   %-7d ok %-7d failed %-5d sheds %-5d (429=%d 503=%d retries=%d)  achieved %.1f rps\n",
		r.Requests, r.OK, r.Failed, r.Sheds, r.Rejected429, r.Rejected503, r.Retries, r.AchievedRPS)
	fmt.Fprintf(&b, "  latency    p50=%-9s p90=%-9s p99=%-9s max=%-9s mean=%s\n",
		fmtNs(r.Latency.P50), fmtNs(r.Latency.P90), fmtNs(r.Latency.P99), fmtNs(r.Latency.Max), fmtNs(int64(r.Latency.Mean)))
	fmt.Fprintf(&b, "   ├ hit     p50=%-9s p99=%-9s (%d served from plan cache)\n",
		fmtNs(r.HitLatency.P50), fmtNs(r.HitLatency.P99), r.Cache.ClientHits)
	fmt.Fprintf(&b, "   └ miss    p50=%-9s p99=%-9s\n", fmtNs(r.MissLatency.P50), fmtNs(r.MissLatency.P99))
	fmt.Fprintf(&b, "  cache      hits %-6d misses %-6d hit-rate %.1f%%  coalesced %d\n",
		r.Cache.Hits, r.Cache.Misses, 100*r.Cache.HitRate, r.Cache.Coalesced)
	if r.Cluster != nil {
		fmt.Fprintf(&b, "  cluster    proxied %-5d failover-local %-4d plans-computed %-5d (unreachable targets: %d)\n",
			r.Cluster.Proxied, r.Cluster.FailoverLocal, r.Cluster.PlansComputed, r.Cluster.MetricsUnreachable)
	}
	return b.String()
}

// runLoadStudy is the plain load run against o.Targets or an in-process
// server; it fails on any hard failure.
func runLoadStudy(d *Driver, o Options) (outcome, error) {
	var rep *report
	var err error
	if o.InProcess {
		rep, err = d.loadInProcess(service.Config{CacheCapacity: 1024}, o.RPS, o.Duration, o.Seed)
	} else {
		rep, err = d.runLoad(o.Targets, o.RPS, o.Duration, o.Seed)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{text: rep.table(), section: rep, pass: rep.Failed == 0}, nil
}

// runSweep is experiment X8: serving throughput and latency as a
// function of worker-pool size and plan caching, on a fresh in-process
// server per cell.
func runSweep(d *Driver, o Options) (outcome, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "X8 — service throughput/latency vs worker-pool size and plan cache\n")
	fmt.Fprintf(&b, "open-loop %d rps per cell for %v, mix seed %d, spec pool %d\n\n", o.RPS, o.Duration, o.Seed, specPool)
	fmt.Fprintf(&b, "| workers | cache | ok | failed | achieved rps | p50 | p99 | hit-rate |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	type cell struct {
		Workers int  `json:"workers"`
		Cache   bool `json:"cache"`
		report
	}
	var cells []cell
	for _, w := range []int{1, 2, 4, 8} {
		for _, cached := range []bool{true, false} {
			capacity, onoff := 1024, "on"
			if !cached {
				capacity, onoff = -1, "off"
			}
			rep, err := d.loadInProcess(service.Config{Workers: w, CacheCapacity: capacity}, o.RPS, o.Duration, o.Seed)
			if err != nil {
				return outcome{}, err
			}
			fmt.Fprintf(&b, "| %d | %s | %d | %d | %.1f | %s | %s | %.1f%% |\n",
				w, onoff, rep.OK, rep.Failed, rep.AchievedRPS,
				fmtNs(rep.Latency.P50), fmtNs(rep.Latency.P99), 100*rep.Cache.HitRate)
			cells = append(cells, cell{Workers: w, Cache: cached, report: *rep})
		}
	}
	return outcome{text: b.String(), section: cells, pass: true}, nil
}

// loadInProcess runs the mix against a fresh in-process server.
func (d *Driver) loadInProcess(cfg service.Config, rps int, duration time.Duration, seed uint64) (*report, error) {
	srv, url, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer shutdownServer(srv)
	return d.runLoad([]string{url}, rps, duration, seed)
}

// startServer boots a service.Server on a loopback listener.
func startServer(cfg service.Config) (*service.Server, string, error) {
	srv := service.New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("in-process server: %w", err)
	}
	return srv, "http://" + addr.String(), nil
}

func shutdownServer(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// ratio is a/b, or 0 when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
