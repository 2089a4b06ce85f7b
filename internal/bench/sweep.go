package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// SweepWorkers is the worker axis of the parallel speedup study
// (EXPERIMENTS.md X12), behind `make sweep-parallel`.
var SweepWorkers = []int{1, 2, 4, 8}

// SweepN and SweepAlpha pin the sweep's instance: the headline
// N=2^20 BA-HF plan from the scale grid.
const (
	SweepN     = 1 << 20
	SweepAlpha = 0.3
)

// SweepCell is one worker count's outcome.
type SweepCell struct {
	Workers    int     `json:"workers"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Speedup is the workers=1 cell's ns/op divided by this cell's —
	// above 1 means the fan-out paid for itself.
	Speedup float64 `json:"speedup"`
}

// Sweep is the parallel speedup study: one algorithm and instance, one
// cell per worker count, plus a one-worker planner as the baseline row
// workers=0. A planner fans out only with at least two workers, so the
// workers=1 cell plans like the baseline.
type Sweep struct {
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	MaxProcs    int         `json:"maxprocs"`
	Algorithm   string      `json:"algorithm"`
	Alpha       float64     `json:"alpha"`
	Kappa       float64     `json:"kappa"`
	N           int         `json:"n"`
	BenchtimeNs int64       `json:"benchtime_ns"`
	SeqNsPerOp  float64     `json:"seq_ns_per_op"`
	Cells       []SweepCell `json:"cells"`
}

// RunParallelSweep times BA-HF planning of the N=2^20 synthetic
// instance through the multicore planner at every worker count in
// workers (nil means SweepWorkers), spending about benchtime per cell.
func RunParallelSweep(benchtime time.Duration, workers []int) (*Sweep, error) {
	if workers == nil {
		workers = SweepWorkers
	}
	s := &Sweep{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		Algorithm:   "BA-HF",
		Alpha:       SweepAlpha,
		Kappa:       kappa,
		N:           SweepN,
		BenchtimeNs: benchtime.Nanoseconds(),
	}
	seq, err := runCell("BA-HF", ModeSeq, SweepAlpha, SweepN, benchtime)
	if err != nil {
		return nil, fmt.Errorf("sweep sequential baseline: %w", err)
	}
	s.SeqNsPerOp = seq.NsPerOp

	var k bisect.Kernel = bisect.SyntheticKernel{Lo: SweepAlpha, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, rootSeed)
	var base float64
	for _, w := range workers {
		if w < 1 {
			return nil, fmt.Errorf("sweep worker count must be ≥ 1, got %d", w)
		}
		pp := core.NewParallelPlanner(SweepN, core.ParallelOptions{Workers: w})
		var plan core.Plan
		run := func() error { return pp.BAHFInto(&plan, k, root, SweepN, SweepAlpha, kappa) }
		if err := run(); err != nil {
			return nil, fmt.Errorf("sweep w=%d: %w", w, err)
		}
		iters := 0
		var elapsed time.Duration
		for elapsed < benchtime || iters == 0 {
			start := time.Now()
			if err := run(); err != nil {
				return nil, fmt.Errorf("sweep w=%d: %w", w, err)
			}
			elapsed += time.Since(start)
			iters++
		}
		c := SweepCell{Workers: w, Iterations: iters,
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters)}
		if base == 0 {
			base = c.NsPerOp
		}
		c.Speedup = base / c.NsPerOp
		s.Cells = append(s.Cells, c)
	}
	return s, nil
}

// WriteText renders the sweep as an aligned table (results/parallel.txt).
func (s *Sweep) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "parallel planner speedup sweep (%s, %s/%s, maxprocs %d, %v/cell)\n",
		s.GoVersion, s.GOOS, s.GOARCH, s.MaxProcs, time.Duration(s.BenchtimeNs)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s α=%g κ=%g N=%d; speedup is vs the workers=1 row\n", s.Algorithm, s.Alpha, s.Kappa, s.N); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "sequential planner baseline (bucket queue): %14.0f ns/op\n\n", s.SeqNsPerOp); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %14s %10s %6s\n", "workers", "ns/op", "speedup", "iters")
	for _, c := range s.Cells {
		if _, err := fmt.Fprintf(w, "%8d %14.0f %10.2f %6d\n", c.Workers, c.NsPerOp, c.Speedup, c.Iterations); err != nil {
			return err
		}
	}
	return nil
}
