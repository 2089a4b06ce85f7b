package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"bisectlb/internal/bench"
	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
	"bisectlb/internal/graph"
	"bisectlb/internal/spatial"
)

// X15 — real-instance study. The synthetic studies draw α̂ from a
// distribution; here the bisector is a real algorithm (the multilevel
// hypergraph bisector of internal/graph, the cut-line bisector of
// internal/spatial) and α̂ is whatever it achieves on the instance. Each
// run records every performed bisection through a bisect.AlphaRecorder
// and compares the achieved ratio against the measured worst-case bound
// r_α̂ evaluated at the realized α̂ — RHFProvableN for HF, BASmallN for
// BA (DESIGN.md §16, EXPERIMENTS.md X15).

// RealConfig parameterises the X15 real-instance study.
type RealConfig struct {
	// Seed derives the instance roster and every bisection RNG stream.
	Seed uint64
	// Ns are the processor counts each instance is planned for.
	Ns []int
}

// DefaultRealStudy is the tracked-results configuration.
func DefaultRealStudy(seed uint64) RealConfig {
	return RealConfig{Seed: seed, Ns: []int{4, 8, 16, 32}}
}

// realInstance is one roster entry: a named root-problem builder. build
// is called once per (algorithm, N) run with a fresh recorder so the
// realized α̂ belongs to exactly that run.
type realInstance struct {
	family string
	name   string
	build  func(seed uint64, rec *bisect.AlphaRecorder) (bisect.Problem, error)
}

// realRoster is the fixed instance set: three graph/hypergraph
// instances and three spatial load matrices, spanning the generator
// families the verify sweep draws from.
func realRoster() []realInstance {
	gp := func(build func() (*graph.Hypergraph, error)) func(uint64, *bisect.AlphaRecorder) (bisect.Problem, error) {
		return func(seed uint64, rec *bisect.AlphaRecorder) (bisect.Problem, error) {
			h, err := build()
			if err != nil {
				return nil, err
			}
			return graph.New(h, graph.Config{Seed: seed, Recorder: rec})
		}
	}
	sp := func(build func() (*spatial.Matrix, error)) func(uint64, *bisect.AlphaRecorder) (bisect.Problem, error) {
		return func(seed uint64, rec *bisect.AlphaRecorder) (bisect.Problem, error) {
			m, err := build()
			if err != nil {
				return nil, err
			}
			return spatial.New(m, spatial.Config{Seed: seed, Recorder: rec})
		}
	}
	return []realInstance{
		{"graph", "grid16x16", gp(func() (*graph.Hypergraph, error) { return graph.GridGraph(16, 16, 1, 7) })},
		{"graph", "grid12x12w", gp(func() (*graph.Hypergraph, error) { return graph.GridGraph(12, 12, 4, 11) })},
		{"graph", "ring256", gp(func() (*graph.Hypergraph, error) { return graph.RingGraph(256, 64, 3, 13) })},
		{"graph", "hyper192", gp(func() (*graph.Hypergraph, error) { return graph.RandomHypergraph(192, 144, 5, 3, 17) })},
		{"spatial", "uniform32x32", sp(func() (*spatial.Matrix, error) { return spatial.UniformMatrix(32, 32, 12, 19) })},
		{"spatial", "blobs40x40", sp(func() (*spatial.Matrix, error) { return spatial.BlobMatrix(40, 40, 4, 3000, 23) })},
		{"spatial", "ridge24x48", sp(func() (*spatial.Matrix, error) { return spatial.RidgeMatrix(24, 48, 250, 29) })},
	}
}

// RunRealStudy runs HF and BA over every roster instance at every
// configured N and returns the rows destined for the BENCH_core.json
// {real} section. It fails loudly if any achieved ratio exceeds its
// measured bound — the study doubles as an acceptance check.
func RunRealStudy(cfg RealConfig) ([]bench.RealMeasurement, error) {
	if len(cfg.Ns) == 0 {
		return nil, fmt.Errorf("real study: no processor counts configured")
	}
	var rows []bench.RealMeasurement
	for _, inst := range realRoster() {
		for _, alg := range []string{"HF", "BA"} {
			for _, n := range cfg.Ns {
				if n < 1 {
					return nil, fmt.Errorf("real study: invalid N=%d", n)
				}
				rec := &bisect.AlphaRecorder{}
				p, err := inst.build(cfg.Seed|1, rec)
				if err != nil {
					return nil, fmt.Errorf("real study %s: %w", inst.name, err)
				}
				var res *core.Result
				switch alg {
				case "HF":
					res, err = core.HF(p, n, core.Options{})
				case "BA":
					res, err = core.BA(p, n, core.Options{})
				}
				if err != nil {
					return nil, fmt.Errorf("real study %s/%s N=%d: %w", inst.name, alg, n, err)
				}
				row := bench.RealMeasurement{
					Family:    inst.family,
					Instance:  inst.name,
					Algorithm: alg,
					N:         n,
					Parts:     len(res.Parts),
					AlphaMin:  rec.Min(),
					AlphaMean: rec.Mean(),
					Ratio:     res.Ratio,
				}
				// The measured-α̂ bound needs every processor busy: a run
				// that bottomed out on indivisible parts before reaching N
				// parts, or recorded no bisection, reports none.
				if b, err := bounds.Measured(alg, row.AlphaMin, n); err == nil && row.Parts == n {
					row.Bound = b
				}
				if row.Bound > 0 && row.Ratio > row.Bound*(1+1e-9) {
					return nil, fmt.Errorf("real study %s/%s N=%d: ratio %.6f exceeds measured bound r_α̂ = %.6f (α̂=%.4f)",
						inst.name, alg, n, row.Ratio, row.Bound, row.AlphaMin)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderRealStudy writes the X15 table: per (instance, algorithm, N)
// the realized α̂ (worst and mean over performed bisections), the
// achieved ratio and the measured bound it stays under. A dash in the
// bound column marks runs the measured bound does not cover (idle
// processors on indivisible parts).
func RenderRealStudy(w io.Writer, cfg RealConfig, rows []bench.RealMeasurement) error {
	fmt.Fprintf(w, "X15: real-instance bisectors — measured ratio vs the r_α̂ bound (seed %d)\n", cfg.Seed)
	fmt.Fprintf(w, "α̂ is realized per run: min/mean over the bisections actually performed.\n\n")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "\tfamily\tinstance\talg\tN\tparts\tα̂ min\tα̂ mean\tratio\tr_α̂\theadroom\t\n")
	prev := ""
	for _, r := range rows {
		if prev != "" && r.Instance != prev {
			fmt.Fprintf(tw, "\t\t\t\t\t\t\t\t\t\t\t\n")
		}
		prev = r.Instance
		bound, head := "-", "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.3f", r.Bound)
			head = fmt.Sprintf("%.1f%%", 100*(r.Bound-r.Ratio)/r.Bound)
		}
		fmt.Fprintf(tw, "\t%s\t%s\t%s\t%d\t%d\t%.4f\t%.4f\t%.3f\t%s\t%s\t\n",
			r.Family, r.Instance, r.Algorithm, r.N, r.Parts, r.AlphaMin, r.AlphaMean, r.Ratio, bound, head)
	}
	return tw.Flush()
}
