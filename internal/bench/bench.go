// Package bench is the tracked planner-benchmark harness behind
// cmd/lbbench and `make bench-core`. It times the allocation-free
// planner (internal/core.Planner) over the fixed grid
//
//	{HF, PHF, BA, BA-HF} × α ∈ {0.1, 0.3, 0.5} × N ∈ {64, 1024, 16384}
//
// plus the scale cells at α=0.3, N ∈ {2^16, 2^20} — HF, and sequential
// vs multicore planning for BA/BA-HF (DESIGN.md §13) — on the paper's
// synthetic substrate, and emits the results as both an
// aligned text table and the machine-readable BENCH_core.json checked in
// at the repo root — the core-performance trajectory file, the planning
// counterpart to lbload's BENCH_service.json (EXPERIMENTS.md X9 and X12
// explain how to read and regenerate it).
//
// The harness measures with its own calibrated loop instead of
// testing.Benchmark so callers control the per-cell time budget
// (testing.Benchmark hard-codes the 1s default outside `go test`), and
// reads allocation counts from runtime.MemStats deltas, which is how it
// can report allocs/op without the testing package.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// Grid dimensions. Exported so tests and docs can't drift from what the
// harness actually runs.
var (
	Algorithms = []string{"HF", "PHF", "BA", "BA-HF"}
	Alphas     = []float64{0.1, 0.3, 0.5}
	Ns         = []int{64, 1024, 16384}
)

// Execution modes. ModeSeq is a one-worker planner; ModePar plans
// through a planner with GOMAXPROCS workers. Both
// produce the bit-identical plan — the cells measure constants, never
// output.
const (
	ModeSeq = "seq"
	ModePar = "par"
)

// Scale-cell dimensions: the saturate-the-machine axis of the suite.
var (
	ScaleAlpha = 0.3
	ScaleNs    = []int{1 << 16, 1 << 20}
)

// ScaleCell names one scale measurement: an algorithm at ScaleAlpha and
// a large N, run in a specific execution mode.
type ScaleCell struct {
	Algorithm string
	Mode      string
	N         int
}

// ScaleCells enumerates the scale grid: for each large N, BA and BA-HF
// sequential vs parallel (the multicore speedup pairs) and sequential
// HF, which has no parallel decomposition.
func ScaleCells() []ScaleCell {
	var cells []ScaleCell
	for _, n := range ScaleNs {
		for _, alg := range []string{"BA", "BA-HF"} {
			cells = append(cells,
				ScaleCell{alg, ModeSeq, n},
				ScaleCell{alg, ModePar, n})
		}
		cells = append(cells, ScaleCell{"HF", ModeSeq, n})
	}
	return cells
}

// rootSeed pins the synthetic instance so runs are comparable across
// machines and time; κ is BA-HF's default threshold.
const (
	rootSeed = 42
	kappa    = 1.0
)

// Measurement is one grid cell's outcome.
type Measurement struct {
	Algorithm string  `json:"algorithm"`
	Alpha     float64 `json:"alpha"`
	N         int     `json:"n"`
	// Mode is the execution mode (seq, par); the base grid runs
	// everything in seq.
	Mode string `json:"mode"`
	// Workers is the goroutine count for par cells, 0 otherwise.
	Workers     int     `json:"workers,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Parts and Ratio describe the plan itself (identical every
	// iteration — planning is deterministic), tying the timing back to
	// the partition it buys.
	Parts int     `json:"parts"`
	Ratio float64 `json:"ratio"`
}

// RealMeasurement is one row of the X15 real-instance study
// (cmd/lbsim -exp real): a planner run over an actual graph or spatial
// instance, with the realized bisection quality α̂ and the measured
// worst-case bound r_α̂ it was checked against (DESIGN.md §16). Bound is
// 0 when the measured bound does not apply (the instance bottomed out
// on indivisible parts before reaching N parts).
type RealMeasurement struct {
	Family    string  `json:"family"`
	Instance  string  `json:"instance"`
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Parts     int     `json:"parts"`
	AlphaMin  float64 `json:"alpha_min"`
	AlphaMean float64 `json:"alpha_mean"`
	Ratio     float64 `json:"ratio"`
	Bound     float64 `json:"bound,omitempty"`
}

// Suite is the full harness outcome, the schema of BENCH_core.json.
type Suite struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// MaxProcs records GOMAXPROCS at measurement time — the context the
	// par cells must be read in (a 1-CPU machine cannot show speedup).
	MaxProcs    int           `json:"maxprocs"`
	BenchtimeNs int64         `json:"benchtime_ns"`
	Cells       []Measurement `json:"cells"`
	// Real is the X15 real-instance section, written by
	// `cmd/lbsim -exp real` (`make sweep-real`) and preserved verbatim
	// by lbbench when it rewrites the timing cells.
	Real []RealMeasurement `json:"real,omitempty"`
}

// SchemaID versions BENCH_core.json; bump on incompatible change.
// v2: cells carry mode/workers, the suite records maxprocs, and the
// scale cells (α=0.3, N ∈ {2^16, 2^20}, seq/par and heap/bucket) join
// the grid.
// v3: the optional {real} section carries the X15 real-instance
// measurements (measured ratio vs the r_α̂ bound).
const SchemaID = "bisectlb-bench-core/v3"

// RunCore runs the whole grid — base cells then scale cells — spending
// about benchtime per cell (minimum one iteration, so a tiny benchtime
// still measures every cell — CI uses that as a smoke run).
func RunCore(benchtime time.Duration) (*Suite, error) {
	s := &Suite{
		Schema:      SchemaID,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		BenchtimeNs: benchtime.Nanoseconds(),
	}
	for _, alg := range Algorithms {
		for _, alpha := range Alphas {
			for _, n := range Ns {
				m, err := runCell(alg, ModeSeq, alpha, n, benchtime)
				if err != nil {
					return nil, fmt.Errorf("bench %s α=%g N=%d: %w", alg, alpha, n, err)
				}
				s.Cells = append(s.Cells, m)
			}
		}
	}
	for _, sc := range ScaleCells() {
		m, err := runCell(sc.Algorithm, sc.Mode, ScaleAlpha, sc.N, benchtime)
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s N=%d: %w", sc.Algorithm, sc.Mode, sc.N, err)
		}
		s.Cells = append(s.Cells, m)
	}
	return s, nil
}

// runCell times one (algorithm, mode, α, N) cell. The α under test is
// both the declared class α (for PHF/BA-HF) and the lower bound of the
// synthetic α̂ interval, so declared and actual bisection quality agree.
func runCell(alg, mode string, alpha float64, n int, benchtime time.Duration) (Measurement, error) {
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: alpha, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, rootSeed)
	var plan core.Plan
	m := Measurement{Algorithm: alg, Alpha: alpha, N: n, Mode: mode}

	var run func() error
	var err error
	switch mode {
	case ModeSeq:
		run, err = planFunc(alg, core.NewPlanner(n), &plan, k, root, n, alpha)
	case ModePar:
		// Only BA and BA-HF fan out; requesting anything else in par
		// mode is a grid-authoring error, not a silent fallback.
		if alg != "BA" && alg != "BA-HF" {
			return Measurement{}, fmt.Errorf("algorithm %q has no parallel plan mode", alg)
		}
		m.Workers = runtime.GOMAXPROCS(0)
		run, err = planFunc(alg, core.NewParallelPlanner(n, core.ParallelOptions{}), &plan, k, root, n, alpha)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return Measurement{}, err
	}
	if err := run(); err != nil { // warm buffers; also validates the cell
		return Measurement{}, err
	}
	m.Parts = len(plan.Parts)
	m.Ratio = plan.Ratio

	var ms0, ms1 runtime.MemStats
	iters := 0
	var elapsed time.Duration
	batch := 1
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for elapsed < benchtime {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := run(); err != nil {
				return Measurement{}, err
			}
		}
		elapsed += time.Since(start)
		iters += batch
		if batch < 1<<16 {
			batch *= 2
		}
	}
	runtime.ReadMemStats(&ms1)
	m.Iterations = iters
	m.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	m.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	m.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters)
	return m, nil
}

// planFunc maps an algorithm name to its planner call over shared
// buffers. The kernel is converted to its interface form once by the
// caller: converting per call would allocate and pollute allocs/op.
func planFunc(alg string, pl *core.Planner, plan *core.Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) (func() error, error) {
	switch alg {
	case "HF":
		return func() error { return pl.HFInto(plan, k, root, n) }, nil
	case "PHF":
		return func() error { return pl.PHFInto(plan, k, root, n, alpha) }, nil
	case "BA":
		return func() error { return pl.BAInto(plan, k, root, n) }, nil
	case "BA-HF":
		return func() error { return pl.BAHFInto(plan, k, root, n, alpha, kappa) }, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}

// LoadSuite strict-decodes a tracked BENCH_core.json. The writers use
// it to carry sections across partial rewrites: lbbench preserves the
// {real} section when it re-times the grid, and `lbsim -exp real`
// preserves the timing cells when it rewrites {real}.
func LoadSuite(path string) (*Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bench: %s does not match the Suite schema: %w", path, err)
	}
	return &s, nil
}

// WriteJSON renders the suite as indented JSON (the BENCH_core.json
// format).
func (s *Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// modeOrder sorts seq before par within one (alg, α, N).
func modeOrder(mode string) int {
	switch mode {
	case ModeSeq:
		return 0
	case ModePar:
		return 1
	}
	return 2
}

// WriteText renders the suite as an aligned table grouped by algorithm,
// cells sorted by (algorithm grid order, α, N, mode).
func (s *Suite) WriteText(w io.Writer) error {
	order := make(map[string]int, len(Algorithms))
	for i, a := range Algorithms {
		order[a] = i
	}
	cells := append([]Measurement(nil), s.Cells...)
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if order[a.Algorithm] != order[b.Algorithm] {
			return order[a.Algorithm] < order[b.Algorithm]
		}
		if a.Alpha != b.Alpha {
			return a.Alpha < b.Alpha
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return modeOrder(a.Mode) < modeOrder(b.Mode)
	})
	if _, err := fmt.Fprintf(w, "core planner benchmarks (%s, %s/%s, maxprocs %d, %v/cell)\n\n",
		s.GoVersion, s.GOOS, s.GOARCH, s.MaxProcs, time.Duration(s.BenchtimeNs)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-6s %5s %8s %14s %12s %12s %8s %8s\n",
		"alg", "mode", "alpha", "N", "ns/op", "allocs/op", "B/op", "parts", "ratio")
	prev := ""
	for _, m := range cells {
		if prev != "" && m.Algorithm != prev {
			fmt.Fprintln(w)
		}
		prev = m.Algorithm
		if _, err := fmt.Fprintf(w, "%-6s %-6s %5g %8d %14.0f %12.2f %12.1f %8d %8.4f\n",
			m.Algorithm, m.Mode, m.Alpha, m.N, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.Parts, m.Ratio); err != nil {
			return err
		}
	}
	return nil
}
