// Command lbload runs the serving studies of internal/loadgen against
// the balancing service. -study picks one:
//
//	load       open-loop mixed load against -targets (a running lbserve
//	           or a cluster, round-robin) or, with -inprocess, an
//	           in-process server
//	sweep      X8: workers × cache on/off grid
//	slo        X11: overload SLO, tenant isolation, warm restarts
//	cluster    X13: 3-node exactly-once planning + mid-sweep node kill
//	rebalance  X14: patched vs fresh planning as drift grows
//	gate       noise-aware perf gate against the -json baseline
//
// Each study writes its report to -out (default: its own results/ file)
// and its section of BENCH_service.json to -json, preserving the other
// sections. It exits 1 when a study's acceptance criteria fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bisectlb/internal/loadgen"
)

func main() {
	var o loadgen.Options
	study := flag.String("study", "load", "study to run: "+loadgen.Names())
	targets := flag.String("targets", "http://127.0.0.1:8733", "comma-separated lbserve base URLs (bare host:port accepted), driven round-robin with failover (load study)")
	flag.BoolVar(&o.InProcess, "inprocess", false, "load study: start the service in-process and load it over loopback")
	flag.IntVar(&o.RPS, "rps", 200, "target request rate (open loop)")
	flag.DurationVar(&o.Duration, "duration", 5*time.Second, "load duration (per phase or cell)")
	flag.Uint64Var(&o.Seed, "seed", 1999, "mix-sampling seed")
	out := flag.String("out", "", "human-readable report file (default: the study's own; empty disables)")
	flag.StringVar(&o.JSON, "json", "BENCH_service.json", "sectioned trajectory file: studies rewrite their section, the gate reads its baseline (empty disables)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	st, ok := loadgen.Studies[*study]
	if !ok {
		fmt.Fprintf(os.Stderr, "lbload: unknown study %q (want %s)\n", *study, loadgen.Names())
		os.Exit(2)
	}
	o.Targets, o.Out = loadgen.ParseTargets(*targets), st.Out
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			o.Out = *out
		}
	})

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbload:", err)
		os.Exit(1)
	}
	pass, err := st.Execute(*study, o)
	stopProf() // os.Exit skips defers; flush the profiles first
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbload:", err)
		os.Exit(1)
	}
	if !pass {
		os.Exit(1)
	}
}

// startProfiles starts CPU profiling; the returned stop function ends it
// and snapshots the allocation profile. The profiles cover the whole
// process, generator and in-process service alike.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		if cpuF, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC() // settle live objects so the snapshot is stable
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbload: memprofile:", err)
		}
	}, nil
}
