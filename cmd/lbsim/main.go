// Command lbsim regenerates the paper's exhibits and this reproduction's
// studies, one -exp mode each (EXPERIMENTS.md): Table 1 and Figure 5
// (table1, figure5), the §4 studies (kappa, variance, oddn), the §3
// machine model (machine) and the studies this reproduction adds
// (topology, robustness, splitrule, dynamic, endtoend, chaos, real).
// -exp all runs all of them. The inspectors tree (one bisection tree as
// Graphviz DOT) and trace (one machine-model run as a Gantt chart) run
// only when named. Named alone, table1, figure5 and real also write an
// output file (the CSVs; the X15 table and the {real} section of
// BENCH_core.json), which -out overrides and -out "" disables; -exp all
// writes none, so a default-sized sweep cannot overwrite the recorded
// artifacts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bisectlb/internal/bench"
	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/experiments"
	"bisectlb/internal/machine"
	"bisectlb/internal/topology"
)

// params are the shared flags; each study reads the ones it needs.
type params struct {
	trials, maxLog, n int
	seed              uint64
	alg               string
	flat              bool
	out               string // the study's output file ("" = none)
}

// Constants of the machine-model studies and the inspectors: the
// paper's α̂ ~ U[0.1, 0.5] workload with declared α = 0.1 and κ = 1.
const (
	machineLo, machineHi = 0.1, 0.5
	machineAlpha         = 0.1
	machineKappa         = 1.0
	traceRows            = 32
)

// study is one -exp mode.
type study struct {
	name string
	// out is the file the study also writes by default ("" = none).
	out string
	// inspector studies run only when named, never under -exp all.
	inspector bool
	run       func(w io.Writer, p params) error
}

var studies = []study{
	{name: "table1", out: "results/table1.csv", run: triple(experiments.Table1Config, renderTable1)},
	{name: "figure5", out: "results/figure5.csv", run: triple(experiments.Figure5Config, renderFigure5)},
	{name: "kappa", run: table(func(p params) experiments.KappaConfig {
		return experiments.DefaultKappaConfig(p.trials, p.maxLog, p.seed)
	}, experiments.RunKappaStudy, func(w io.Writer, _ experiments.KappaConfig, res *experiments.KappaResult) error {
		return experiments.RenderKappaStudy(w, res)
	})},
	{name: "variance", run: table(func(p params) experiments.VarianceStudy {
		return experiments.DefaultVarianceStudy(p.trials, p.maxLog, p.seed)
	}, experiments.RunVarianceStudy, func(w io.Writer, _ experiments.VarianceStudy, rows []experiments.VarianceRow) error {
		return experiments.RenderVarianceStudy(w, rows)
	})},
	{name: "oddn", run: table(func(p params) experiments.OddNStudy {
		return experiments.DefaultOddNStudy(p.trials, p.seed)
	}, experiments.RunOddNStudy, experiments.RenderOddNStudy)},
	{name: "machine", run: then(table(func(p params) experiments.MachineStudy {
		return experiments.DefaultMachineStudy(p.trials, p.maxLog, p.seed)
	}, experiments.RunMachineStudy, experiments.RenderMachineStudy), machineDetail)},
	{name: "topology", run: table(func(p params) experiments.TopologyStudy {
		return experiments.DefaultTopologyStudy(p.trials, p.nOr(4096), p.seed)
	}, experiments.RunTopologyStudy, experiments.RenderTopologyStudy)},
	{name: "robustness", run: table(func(p params) experiments.RobustnessStudy {
		return experiments.DefaultRobustnessStudy(p.trials, p.seed)
	}, experiments.RunRobustnessStudy, experiments.RenderRobustnessStudy)},
	{name: "splitrule", run: table(func(p params) experiments.SplitRuleAblation {
		return experiments.DefaultSplitRuleAblation(p.trials, p.maxLog, p.seed)
	}, experiments.RunSplitRuleAblation, experiments.RenderSplitRuleAblation)},
	{name: "dynamic", run: table(func(p params) experiments.DynamicStudy {
		return experiments.DefaultDynamicStudy(p.trials/10+1, p.seed)
	}, experiments.RunDynamicStudy, experiments.RenderDynamicStudy)},
	{name: "endtoend", run: then(
		table(endToEndConfig, experiments.RunEndToEndStudy, experiments.RenderEndToEndStudy),
		table(endToEndConfig, experiments.RunExecutorProbe, experiments.RenderExecutorAppendix))},
	{name: "chaos", run: table(func(p params) experiments.ChaosStudy {
		// Each chaos trial is a full TCP cluster run; scale the count down.
		return experiments.DefaultChaosStudy(p.trials/300+1, p.seed)
	}, experiments.RunChaosStudy, experiments.RenderChaosStudy)},
	{name: "real", out: "results/real.txt", run: runReal},
	{name: "tree", inspector: true, run: runTree},
	{name: "trace", inspector: true, run: runTrace},
}

// table is the run-and-render function of a study that builds its
// configuration from the flags, runs it and renders the result.
func table[C, R any](config func(params) C, run func(C) (R, error), render func(io.Writer, C, R) error) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		cfg := config(p)
		res, err := run(cfg)
		if err != nil {
			return err
		}
		return render(w, cfg, res)
	}
}

// then chains run-and-render functions.
func then(fs ...func(io.Writer, params) error) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		for _, f := range fs {
			if err := f(w, p); err != nil {
				return err
			}
		}
		return nil
	}
}

func endToEndConfig(p params) experiments.EndToEndStudy {
	return experiments.DefaultEndToEndStudy(p.trials, p.seed)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is lbsim on explicit arguments and streams; it returns the exit
// code: 2 for a usage error, 1 for a failed study.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.name
	}
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	exp := fs.String("exp", "all", "study to run: "+strings.Join(names, " | ")+" | all")
	fs.IntVar(&p.trials, "trials", 1000, "trials per configuration")
	fs.IntVar(&p.maxLog, "maxlog", 14, "largest log2 N for the sweeps (paper: 20)")
	fs.Uint64Var(&p.seed, "seed", 1999, "random seed")
	fs.IntVar(&p.n, "n", 0, "processor count: machine's single-run detail and topology (default 4096), tree (16), trace (32)")
	fs.StringVar(&p.alg, "alg", "", "algorithm: tree hf | ba | bahf | phf (default hf); trace ba | phf (default ba)")
	fs.BoolVar(&p.flat, "flat", false, "table1, figure5: no trial scaling above 2^14 (paper-exact, slow)")
	out := fs.String("out", "", "output file of a single named study (default: the study's own; empty disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	outSet := false
	fs.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })

	// Reject unknown experiment names before any study runs, so a typo
	// exits immediately instead of after minutes of sweeps.
	var selected []study
	for _, s := range studies {
		if s.name == *exp || (*exp == "all" && !s.inspector) {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "lbsim: unknown experiment %q (want %s or all)\n", *exp, strings.Join(names, ", "))
		return 2
	}
	switch {
	case len(selected) == 1 && outSet:
		p.out = *out
	case len(selected) == 1:
		p.out = selected[0].out
	case outSet:
		fmt.Fprintln(stderr, "lbsim: -out names one file; use it with a single -exp")
		return 2
	}
	for i, s := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := s.run(stdout, p); err != nil {
			fmt.Fprintf(stderr, "lbsim %s: %v\n", s.name, err)
			return 1
		}
	}
	return 0
}

// nOr is -n, or def when -n is unset.
func (p params) nOr(def int) int {
	if p.n > 0 {
		return p.n
	}
	return def
}

// triple is the run-and-render function of Table 1 and Figure 5: the
// paper's configuration under -flat, rendered, then the CSV when the
// study has an output file.
func triple(config func(trials, maxLog int, seed uint64) experiments.TripleConfig,
	render func(io.Writer, experiments.TripleConfig, []experiments.TripleRow) error) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		cfg := config(p.trials, p.maxLog, p.seed)
		cfg.ScaleTrials = !p.flat
		if err := cfg.Validate(); err != nil {
			return err
		}
		rows, err := experiments.RunTriple(cfg)
		if err != nil {
			return err
		}
		if err := render(w, cfg, rows); err != nil || p.out == "" {
			return err
		}
		if err := writeTo(p.out, func(f io.Writer) error { return experiments.WriteTripleCSV(f, rows) }); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "CSV written to %s\n", p.out)
		return err
	}
}

func renderTable1(w io.Writer, cfg experiments.TripleConfig, rows []experiments.TripleRow) error {
	err := experiments.RenderTable1(w, cfg, rows)
	fmt.Fprintln(w)
	return err
}

// renderFigure5 draws the chart and checks the qualitative findings the
// paper reports for it.
func renderFigure5(w io.Writer, cfg experiments.TripleConfig, rows []experiments.TripleRow) error {
	if err := experiments.RenderFigure5(w, cfg, rows); err != nil {
		return err
	}
	if violations := experiments.CheckFigure5Shape(rows); len(violations) > 0 {
		fmt.Fprintf(w, "\nshape check: FAIL\n  - %s\n", strings.Join(violations, "\n  - "))
		return fmt.Errorf("%d shape violations", len(violations))
	}
	_, err := fmt.Fprintln(w, "\nshape check: PASS — HF < BA-HF < BA throughout, spreads within the paper's bounds")
	return err
}

// machineDetail is E6's single-run detail at -n.
func machineDetail(w io.Writer, p params) error {
	n := p.nOr(4096)
	fmt.Fprintf(w, "\nSingle-run detail at N = %d (seed %d):\n", n, p.seed)
	topo := topology.NewComplete(n)
	for _, run := range experiments.MachineVariants(machineAlpha, machineKappa) {
		m, err := run(bisect.MustSynthetic(1, machineLo, machineHi, p.seed), topo)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s makespan=%-8d messages=%-8d mgr=%-6d globalOps=%-5d ratio=%.4f",
			m.Algorithm, m.Makespan, m.Messages, m.ManagerMessages, m.GlobalOps, m.Ratio)
		if m.Phase1Time > 0 || m.Phase2Time > 0 {
			fmt.Fprintf(w, "  (phase1=%d phase2=%d iters=%d)", m.Phase1Time, m.Phase2Time, m.Phase2Iterations)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runReal is X15; with an output file it also rewrites the {real}
// section of BENCH_core.json, timing cells preserved.
func runReal(w io.Writer, p params) error {
	cfg := experiments.DefaultRealStudy(p.seed)
	rows, err := experiments.RunRealStudy(cfg)
	if err != nil {
		return err
	}
	if err := experiments.RenderRealStudy(w, cfg, rows); err != nil {
		return err
	}
	if p.out == "" {
		return nil
	}
	if err := writeTo(p.out, func(f io.Writer) error { return experiments.RenderRealStudy(f, cfg, rows) }); err != nil {
		return err
	}
	// Merge, don't overwrite: the timing cells belong to lbbench.
	const suite = "BENCH_core.json"
	s, err := bench.LoadSuite(suite)
	if err != nil {
		return fmt.Errorf("cannot merge {real} section: %w", err)
	}
	s.Real = rows
	return writeTo(suite, s.WriteJSON)
}

// runTree plans the α̂ ~ U[0.1, 0.5] workload with one algorithm and
// prints the recorded bisection tree as Graphviz DOT, with a structural
// summary on stderr.
func runTree(w io.Writer, p params) error {
	prob, n := bisect.MustSynthetic(1, machineLo, machineHi, p.seed), p.nOr(16)
	opt := core.Options{RecordTree: true}
	var res *core.Result
	var err error
	switch p.alg {
	case "", "hf":
		res, err = core.HF(prob, n, opt)
	case "ba":
		res, err = core.BA(prob, n, opt)
	case "bahf":
		res, err = core.BAHF(prob, n, machineAlpha, machineKappa, opt)
	case "phf":
		var phf *core.PHFResult
		if phf, err = core.PHF(prob, n, machineAlpha, opt); err == nil {
			res = &phf.Result
		}
	default:
		return fmt.Errorf("unknown algorithm %q (want hf, ba, bahf or phf)", p.alg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s on uniform[%g,%g] (n=%d): %d parts, %d bisections, max depth %d, ratio %.4f\n",
		res.Algorithm, machineLo, machineHi, n, len(res.Parts), res.Bisections, res.MaxDepth, res.Ratio)
	_, err = io.WriteString(w, res.Tree.DOT())
	return err
}

// runTrace simulates one run on the machine model and draws it as a
// per-processor Gantt chart.
func runTrace(w io.Writer, p params) error {
	prob, topo := bisect.MustSynthetic(1, machineLo, machineHi, p.seed), topology.NewComplete(p.nOr(32))
	tr := new(machine.Trace)
	var m *machine.Metrics
	var err error
	switch p.alg {
	case "", "ba":
		m, err = machine.RunBA(prob, topo, tr)
	case "phf":
		m, err = machine.RunPHF(prob, topo, machineAlpha, machine.Phase1Oracle, tr)
	default:
		return fmt.Errorf("unknown algorithm %q (want ba or phf)", p.alg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on N=%d: makespan=%d, messages=%d, global ops=%d, ratio=%.4f\n\n",
		m.Algorithm, m.N, m.Makespan, m.Messages, m.GlobalOps, m.Ratio)
	return machine.RenderGantt(w, tr, traceRows)
}

// writeTo renders into path, creating parent directories as needed.
func writeTo(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "lbsim: wrote", path)
	return nil
}
