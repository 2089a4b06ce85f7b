// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points of internal/service (over
// loopback HTTP) or of the root bisectlb facade, checks every answer, and
// prints the workload's metrics as one JSON object on the last line of
// standard output. README.md records why each workload exists and which
// layer metric should move which end-to-end metric.
//
// Usage:
//
//	perfbench --workload serve-cold|plan-large --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// wrappers in place. With --trace 1 the window is split into an untraced
// and a traced half and the metrics are the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setUpReps is how many times each workload repeats its set-up; setup_s
// reports the median.
const setUpReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the --trace 0 metrics and their units.
var endToEndUnits = map[string]string{
	"throughput_ops_s":   "1/s",
	"latency_p50_ms":     "ms",
	"latency_p99_ms":     "ms",
	"cpu_ms_per_op":      "ms",
	"mem_rss_mb":         "MiB",
	"setup_s":            "s",
	"success_rate":       "ratio",
	"plan_ratio_geomean": "ratio",
}

// perLayerUnits lists the --trace 1 metrics and their units. A layer that
// a workload does not reach reports 0 (README.md, "Per-layer metrics").
var perLayerUnits = map[string]string{
	"transport.client_ms":   "ms",
	"transport.residual_ms": "ms",

	"service.handler_ms":                      "ms",
	"service.handler_ms.uniform":              "ms",
	"service.handler_ms.fixed":                "ms",
	"service.handler_ms.list":                 "ms",
	"service.handler_ms.fem":                  "ms",
	"service.handler_ms.quadrature":           "ms",
	"service.handler_ms.searchtree":           "ms",
	"service.handler_ms.graph":                "ms",
	"service.handler_ms.spatial":              "ms",
	"service.handler_ms.rebalance":            "ms",
	"service.resp_kb_per_op":                  "KiB",
	"service.cache_hit_ratio":                 "ratio",
	"service.cache_evictions_per_op":          "count",
	"service.plans_computed_per_op":           "count",
	"service.compute_ms":                      "ms",
	"service.noncompute_ms":                   "ms",
	"service.rebalance.patch_ms":              "ms",
	"service.rebalance.full_replan_ratio":     "ratio",
	"service.rebalance.prior_computed_per_op": "count",

	"core.plan_ms_per_plan":              "ms",
	"core.planner.ms_per_plan.HF":        "ms",
	"core.planner.ms_per_plan.PHF":       "ms",
	"core.planner.ms_per_plan.BA":        "ms",
	"core.planner.ms_per_plan.BA-HF":     "ms",
	"core.pplanner.ms_per_plan.BA":       "ms",
	"core.pplanner.ms_per_plan.BA-HF":    "ms",
	"core.allocs_per_plan":               "count",
	"core.bookkeeping_ms_per_plan":       "ms",
	"core.iface.plan_ms_per_plan":        "ms",
	"core.iface.allocs_per_plan":         "count",
	"core.iface.bookkeeping_ms_per_plan": "ms",

	"bisect.kernel.splits_per_plan": "count",
	"bisect.kernel.ms_per_plan":     "ms",

	"graph.bisect_calls_per_plan":      "count",
	"graph.bisect_ms_per_plan":         "ms",
	"spatial.bisect_calls_per_plan":    "count",
	"spatial.bisect_ms_per_plan":       "ms",
	"femtree.bisect_calls_per_plan":    "count",
	"femtree.bisect_ms_per_plan":       "ms",
	"quadrature.bisect_calls_per_plan": "count",
	"quadrature.bisect_ms_per_plan":    "ms",
	"searchtree.bisect_calls_per_plan": "count",
	"searchtree.bisect_ms_per_plan":    "ms",

	"runtime.alloc_kb_per_op":   "KiB",
	"runtime.gc_cycles_per_kop": "count",
	"trace.overhead_ratio":      "ratio",
}

// metrics is a workload's named measurements before units are attached.
type metrics map[string]float64

// finish attaches units from table, fills the table's names a workload
// did not reach with 0, and rejects names outside the table.
func finish(m metrics, table map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(table))
	for name, unit := range table {
		out[name] = metric{Value: m[name], Unit: unit}
	}
	for name, v := range m {
		if _, ok := table[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, v)
		}
	}
	return out, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"serve-cold": runServeCold,
	"plan-large": runPlanLarge,
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: serve-cold or plan-large")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced window and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-cold|plan-large, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		o.workload, o.seed, o.seconds, trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// say prints one human-readable report line.
func say(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// endToEnd computes the --trace 0 metrics of a window; rss is the peak
// RSS read when the window closed, before verification.
func endToEnd(w *window, rss, setupS, ratioGeomean float64, attempted, failed int64) (map[string]metric, error) {
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no op succeeded in the window")
	}
	say("slices: ops/s %.0f", w.sliceRates())
	p50 := quantile(w.lat, 0.50)
	p99 := quantile(w.lat, 0.99)
	say("latency: samples=%d p50=%.4fms p99=%.4fms (%d samples beyond p99)",
		len(w.lat), float64(p50)/1e6, float64(p99)/1e6, len(w.lat)-int(math.Ceil(0.99*float64(len(w.lat)))))
	say("ops: attempted=%d failed=%d error_rate=%g", attempted, failed, float64(failed)/float64(attempted))
	return finish(metrics{
		"throughput_ops_s":   w.throughput(),
		"latency_p50_ms":     float64(p50) / 1e6,
		"latency_p99_ms":     float64(p99) / 1e6,
		"cpu_ms_per_op":      w.cpuMsPerOp(),
		"mem_rss_mb":         rss,
		"setup_s":            setupS,
		"success_rate":       1 - float64(failed)/float64(attempted),
		"plan_ratio_geomean": ratioGeomean,
	}, endToEndUnits)
}

// runtimeLayer computes the runtime.* per-layer metrics of an untraced
// window.
func runtimeLayer(m metrics, w *window) {
	ops := float64(w.ops())
	m["runtime.alloc_kb_per_op"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1024 / ops
	m["runtime.gc_cycles_per_kop"] = float64(w.mem1.NumGC-w.mem0.NumGC) * 1000 / ops
}

// printMetrics prints every metric as one aligned line, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		say("  %-42s %14.6g %s", n, ms[n].Value, ms[n].Unit)
	}
}
