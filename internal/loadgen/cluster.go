package loadgen

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb/internal/cluster"
	"bisectlb/internal/service"
)

// x13P99Bound is the acceptance ceiling on the chaos-phase p99: generous
// against CI noise (plans in the mix compute in well under 10ms), but
// tight enough to catch a failover path that stalls on the dead peer.
const x13P99Bound = 2 * time.Second

// x13Node is one in-process cluster member.
type x13Node struct {
	srv  *service.Server
	node *cluster.Node
	url  string
	once sync.Once
}

func (n *x13Node) kill() {
	n.once.Do(func() {
		n.node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.srv.Shutdown(ctx)
	})
}

// startX13Cluster boots k nodes wired the way cmd/lbserve wires them from
// flags and waits until every ring sees all k members. On error it
// returns the nodes already started, for the caller to kill.
func startX13Cluster(k int) ([]*x13Node, error) {
	var nodes []*x13Node
	for i := 0; i < k; i++ {
		srv := service.New(service.Config{})
		nd, err := cluster.Start(cluster.Config{
			Addr:         "127.0.0.1:0",
			Heartbeat:    50 * time.Millisecond,
			DeadAfter:    300 * time.Millisecond,
			ReplInterval: 200 * time.Millisecond,
			Registry:     srv.Registry(),
			Fill:         srv.ClusterFill,
			Store:        srv.ClusterStore,
			Load:         srv.ClusterLoad,
		})
		if err != nil {
			return nodes, fmt.Errorf("cluster node %d: %w", i, err)
		}
		srv.SetCluster(nd)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			nd.Close()
			return nodes, fmt.Errorf("server %d: %w", i, err)
		}
		nodes = append(nodes, &x13Node{srv: srv, node: nd, url: "http://" + addr.String()})
	}
	for _, n := range nodes[1:] {
		if err := n.node.Join(nodes[0].node.Addr()); err != nil {
			return nodes, fmt.Errorf("join: %w", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		converged := true
		for _, n := range nodes {
			converged = converged && n.srv.Registry().Gauge("service.cluster.live").Value() == int64(k)
		}
		if converged {
			return nodes, nil
		}
		if time.Now().After(deadline) {
			return nodes, fmt.Errorf("rings did not converge to %d members", k)
		}
	}
}

// x13ExactlyOnce fires per-node concurrent identical misses and returns
// (requests fired, plans computed cluster-wide, all-200).
func (d *Driver) x13ExactlyOnce(nodes []*x13Node, perNode int) (int, int64, bool) {
	body := `{"spec":{"family":"uniform","lo":0.25,"hi":0.5,"seed":99991},"n":128,"algorithm":"BA"}`
	computed := func() (total int64) {
		for _, n := range nodes {
			total += n.srv.Registry().Counter("service.plans_computed").Value()
		}
		return total
	}
	baseline := computed()
	var wg sync.WaitGroup
	var bad atomic.Int64
	for _, n := range nodes {
		for g := 0; g < perNode; g++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				if d.postJSON(url, "/v1/balance", body, nil) != nil {
					bad.Add(1)
				}
			}(n.url)
		}
	}
	wg.Wait()
	return len(nodes) * perNode, computed() - baseline, bad.Load() == 0
}

// x13Study is the JSON shape of the BENCH_service.json "cluster"
// section.
type x13Study struct {
	Nodes       int `json:"nodes"`
	ExactlyOnce struct {
		Requests      int   `json:"concurrent_requests"`
		PlansComputed int64 `json:"plans_computed"`
		Pass          bool  `json:"pass"`
	} `json:"exactly_once"`
	Chaos struct {
		report
		KilledAfterSec float64 `json:"killed_after_s"`
		P99Bound       int64   `json:"p99_bound_ns"`
		Pass           bool    `json:"pass"`
	} `json:"chaos"`
	Pass bool `json:"pass"`
}

// runCluster is experiment X13 on three in-process nodes. Phase 1: the
// cluster-wide singleflight must plan identical concurrent misses at
// every node exactly once. Phase 2: an open-loop mixed load drives all
// nodes round-robin while one is killed mid-sweep; failover must keep
// every request served with a bounded p99.
func runCluster(d *Driver, o Options) (outcome, error) {
	const k = 3
	nodes, err := startX13Cluster(k)
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	if err != nil {
		return outcome{}, err
	}
	study := &x13Study{Nodes: k}
	var b strings.Builder
	fmt.Fprintf(&b, "X13 — cluster mode: sharded serving, peer cache fill, failover\n")
	fmt.Fprintf(&b, "3 in-process nodes, consistent-hash ring, heartbeat failure detection\n\n")

	reqs, computed, allOK := d.x13ExactlyOnce(nodes, 8)
	study.ExactlyOnce.Requests = reqs
	study.ExactlyOnce.PlansComputed = computed
	study.ExactlyOnce.Pass = allOK && computed == 1
	fmt.Fprintf(&b, "phase 1 — exactly-once: %d concurrent identical misses across 3 nodes\n", reqs)
	fmt.Fprintf(&b, "  plans computed cluster-wide: %d (want 1)  all served: %v  → %s\n\n",
		computed, allOK, passFail[study.ExactlyOnce.Pass])

	duration := max(o.Duration, 3*time.Second)
	killAfter := duration / 3
	victim := nodes[k-1]
	timer := time.AfterFunc(killAfter, func() {
		fmt.Fprintf(os.Stderr, "lbload cluster: killing %s mid-sweep\n", victim.url)
		victim.kill()
	})
	defer timer.Stop()
	targets := make([]string, k)
	for i, n := range nodes {
		targets[i] = n.url
	}
	rep, err := d.runLoad(targets, o.RPS, duration, o.Seed)
	if err != nil {
		return outcome{}, err
	}
	study.Chaos.report = *rep
	study.Chaos.KilledAfterSec = killAfter.Seconds()
	study.Chaos.P99Bound = int64(x13P99Bound)
	study.Chaos.Pass = rep.Failed == 0 && rep.Latency.P99 <= int64(x13P99Bound)
	fmt.Fprintf(&b, "phase 2 — chaos sweep: %d rps for %v, node 3 killed at %v\n", o.RPS, duration, killAfter)
	fmt.Fprintf(&b, "  requests %d  ok %d  failed %d  sheds %d  retries %d (failover to survivors)\n",
		rep.Requests, rep.OK, rep.Failed, rep.Sheds, rep.Retries)
	fmt.Fprintf(&b, "  latency p50=%s p99=%s (bound %v)  cluster-wide hit-rate %.1f%%\n",
		fmtNs(rep.Latency.P50), fmtNs(rep.Latency.P99), x13P99Bound, 100*rep.Cache.HitRate)
	fmt.Fprintf(&b, "  proxied %d  failover-local %d  plans-computed %d  unreachable-at-end %d\n",
		rep.Cluster.Proxied, rep.Cluster.FailoverLocal, rep.Cluster.PlansComputed, rep.Cluster.MetricsUnreachable)
	fmt.Fprintf(&b, "  → %s\n", passFail[study.Chaos.Pass])

	study.Pass = study.ExactlyOnce.Pass && study.Chaos.Pass
	fmt.Fprintf(&b, "\nX13 overall: %s\n", passFail[study.Pass])
	return outcome{text: b.String(), section: study, pass: study.Pass}, nil
}
