package experiments

import (
	"fmt"
	"io"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/machine"
	"bisectlb/internal/obs"
	"bisectlb/internal/stats"
	"bisectlb/internal/topology"
	"bisectlb/internal/xrand"
)

// EndToEndStudy operationalises the paper's concluding trade-off: "one must
// take into account … the relative importance of fast running-time of the
// load balancing algorithm and of the quality of the achieved load
// balance." Total time to solution is
//
//	end-to-end = balancing makespan + (processing makespan)
//	           = balancing makespan + ratio · G / N,
//
// where G is the problem's total processing time expressed in model units
// (the granularity: how much actual work one unit of balancing time is
// worth). Small G favours the fastest balancer (BA); large G favours the
// best balance (HF's partition via PHF); the crossover locates the regime
// boundary.
type EndToEndStudy struct {
	Lo, Hi float64
	Alpha  float64
	Kappa  float64
	N      int
	// Granularities are the G values swept, in balancing time units.
	Granularities []float64
	Trials        int
	Seed          uint64
}

// DefaultEndToEndStudy sweeps five decades of granularity at N = 4096.
func DefaultEndToEndStudy(trials int, seed uint64) EndToEndStudy {
	return EndToEndStudy{
		Lo: 0.1, Hi: 0.5, Alpha: 0.1, Kappa: 1.0, N: 4096,
		Granularities: []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7},
		Trials:        trials,
		Seed:          seed,
	}
}

// EndToEndRow is one granularity's average end-to-end times.
type EndToEndRow struct {
	Granularity float64
	// Times maps algorithm name → average end-to-end time.
	Algorithms []string
	Times      []float64
	// Best is the winning algorithm at this granularity.
	Best string
}

// RunEndToEndStudy executes the sweep. Balancing makespans and partition
// ratios come from the simulated machine (HF sequential, BA, BA-HF, PHF
// with BA′ bootstrap); processing time is ratio·G/N since the slowest
// processor carries `ratio` times the ideal share.
func RunEndToEndStudy(cfg EndToEndStudy) ([]EndToEndRow, error) {
	if cfg.Trials < 1 || cfg.N < 1 || len(cfg.Granularities) == 0 {
		return nil, fmt.Errorf("experiments: empty end-to-end configuration")
	}
	type sample struct {
		makespan *stats.Sample
		ratio    *stats.Sample
	}
	algs := []string{"HF(seq)", "BA", "BA-HF", "PHF"}
	samples := make([]sample, len(algs))
	for i := range samples {
		samples[i] = sample{stats.NewSample(cfg.Trials), stats.NewSample(cfg.Trials)}
	}
	topo := topology.NewComplete(cfg.N)
	seedGen := xrand.New(cfg.Seed)
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := seedGen.Uint64()
		mk := func() bisect.Problem { return bisect.MustSynthetic(1, cfg.Lo, cfg.Hi, seed) }
		runs := []func() (*machine.Metrics, error){
			func() (*machine.Metrics, error) { return machine.RunHF(mk(), topo, nil) },
			func() (*machine.Metrics, error) { return machine.RunBA(mk(), topo, nil) },
			func() (*machine.Metrics, error) { return machine.RunBAHF(mk(), topo, cfg.Alpha, cfg.Kappa, nil) },
			func() (*machine.Metrics, error) {
				return machine.RunPHF(mk(), topo, cfg.Alpha, machine.Phase1BAPrime, nil)
			},
		}
		for i, run := range runs {
			m, err := run()
			if err != nil {
				return nil, err
			}
			samples[i].makespan.Add(float64(m.Makespan))
			samples[i].ratio.Add(m.Ratio)
		}
	}
	var out []EndToEndRow
	for _, g := range cfg.Granularities {
		row := EndToEndRow{Granularity: g, Algorithms: algs}
		bestIdx := 0
		for i := range algs {
			t := samples[i].makespan.Mean() + samples[i].ratio.Mean()*g/float64(cfg.N)
			row.Times = append(row.Times, t)
			if t < row.Times[bestIdx] {
				bestIdx = i
			}
		}
		row.Best = algs[bestIdx]
		out = append(out, row)
	}
	return out, nil
}

// The executor probe's worker count and processor count. The workers
// are pinned so the appendix's task and spawn counts do not depend on
// the host's cores; N is the smallest a plan fans out at, above the
// study's N.
const (
	probeWorkers = 4
	probeN       = 1 << 15
)

// RunExecutorProbe plans one representative instance of the study's
// distribution with BA, BA-HF and PHF at N = probeN on a flat planner
// with workers and a metrics registry attached. The model-time table
// above predicts cost; the probe records what the planner actually does
// on this machine — subtree tasks, goroutine spawns, bisections,
// sequential fallbacks and wall time — for the metrics appendix.
func RunExecutorProbe(cfg EndToEndStudy) (*obs.Registry, error) {
	reg := obs.NewRegistry()
	pl := core.NewParallelPlanner(probeN, core.ParallelOptions{Workers: probeWorkers, Metrics: reg})
	seed := xrand.New(cfg.Seed).Uint64()
	root, k := bisect.SyntheticFlatRoot(1, seed), bisect.SyntheticKernel{Lo: cfg.Lo, Hi: cfg.Hi}
	var plan core.Plan
	if err := pl.BAInto(&plan, k, root, probeN); err != nil {
		return nil, err
	}
	if err := pl.BAHFInto(&plan, k, root, probeN, cfg.Alpha, cfg.Kappa); err != nil {
		return nil, err
	}
	if err := pl.PHFInto(&plan, k, root, probeN, cfg.Alpha); err != nil {
		return nil, err
	}
	return reg, nil
}

// RenderExecutorAppendix writes the probe registry as a metrics appendix.
func RenderExecutorAppendix(w io.Writer, cfg EndToEndStudy, reg *obs.Registry) error {
	fmt.Fprintf(w, "\nMetrics appendix: multicore planner (BA, BA-HF, PHF) on one representative instance (N = %d, %d workers)\n\n",
		probeN, probeWorkers)
	return reg.WriteText(w)
}

// RenderEndToEndStudy writes the sweep as a table with the winner column.
func RenderEndToEndStudy(w io.Writer, cfg EndToEndStudy, rows []EndToEndRow) error {
	fmt.Fprintf(w, "End-to-end study: balancing time + ratio·G/N at N = %d (α̂ ~ U[%g, %g], %d trials)\n\n",
		cfg.N, cfg.Lo, cfg.Hi, cfg.Trials)
	if len(rows) == 0 {
		return fmt.Errorf("experiments: no rows")
	}
	fmt.Fprintf(w, "%12s", "G")
	for _, a := range rows[0].Algorithms {
		fmt.Fprintf(w, "  %12s", a)
	}
	fmt.Fprintf(w, "  %10s\n", "winner")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.0f", r.Granularity)
		for _, t := range r.Times {
			fmt.Fprintf(w, "  %12.1f", t)
		}
		fmt.Fprintf(w, "  %10s\n", r.Best)
	}
	return nil
}
