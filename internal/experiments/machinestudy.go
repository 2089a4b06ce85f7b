package experiments

import (
	"fmt"
	"io"
	"slices"

	"bisectlb/internal/bisect"
	"bisectlb/internal/machine"
	"bisectlb/internal/stats"
	"bisectlb/internal/topology"
	"bisectlb/internal/xrand"
)

// MachineStudy parameterises the machine-model experiment backing the
// running-time and communication claims of Section 3: HF is Θ(N) while
// PHF, BA and BA-HF run in O(log N) for fixed α; BA needs no global
// communication and no free-processor management traffic; PHF's naive
// central management serialises while the BA′ bootstrap does not.
type MachineStudy struct {
	Lo, Hi float64
	Alpha  float64 // declared class parameter (usually Lo)
	Kappa  float64
	Ns     []int
	Trials int
	Seed   uint64
}

// DefaultMachineStudy covers N = 2^5 … 2^maxLog.
func DefaultMachineStudy(trials, maxLog int, seed uint64) MachineStudy {
	return MachineStudy{
		Lo: 0.1, Hi: 0.5, Alpha: 0.1, Kappa: 1.0,
		Ns:     PowersOfTwo(5, maxLog),
		Trials: trials,
		Seed:   seed,
	}
}

// MachineRow aggregates the simulated metrics for one algorithm at one N.
type MachineRow struct {
	Algorithm string
	N         int
	Makespan  stats.Summary
	Messages  stats.Summary
	MgrMsgs   stats.Summary
	GlobalOps stats.Summary
}

// machineRun simulates one algorithm variant on a machine.
type machineRun = func(bisect.Problem, topology.Topology) (*machine.Metrics, error)

// MachineVariants is the roster of the machine-model study at declared α
// and κ: HF, BA, BA-HF and PHF under each phase-one management, in that
// order. Each run names its variant in Metrics.Algorithm.
func MachineVariants(alpha, kappa float64) []machineRun {
	runs := []machineRun{
		func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunHF(p, topo, nil)
		},
		func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunBA(p, topo, nil)
		},
		func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunBAHF(p, topo, alpha, kappa, nil)
		},
	}
	for _, mode := range []machine.Phase1Mode{machine.Phase1Oracle, machine.Phase1Central, machine.Phase1BAPrime} {
		runs = append(runs, func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunPHF(p, topo, alpha, mode, nil)
		})
	}
	return runs
}

// RunMachineStudy simulates every algorithm variant at every N on the
// idealised machine.
func RunMachineStudy(cfg MachineStudy) ([]MachineRow, error) {
	if cfg.Trials < 1 || len(cfg.Ns) == 0 || slices.Min(cfg.Ns) < 1 {
		return nil, fmt.Errorf("experiments: empty machine study configuration")
	}
	var out []MachineRow
	for _, n := range cfg.Ns {
		topo := topology.NewComplete(n)
		for _, run := range MachineVariants(cfg.Alpha, cfg.Kappa) {
			mk := stats.NewSample(cfg.Trials)
			ms := stats.NewSample(cfg.Trials)
			mg := stats.NewSample(cfg.Trials)
			gl := stats.NewSample(cfg.Trials)
			seedGen := xrand.New(cfg.Seed + uint64(n))
			var name string
			for trial := 0; trial < cfg.Trials; trial++ {
				p := bisect.MustSynthetic(1, cfg.Lo, cfg.Hi, seedGen.Uint64())
				m, err := run(p, topo)
				if err != nil {
					return nil, err
				}
				name = m.Algorithm
				mk.Add(float64(m.Makespan))
				ms.Add(float64(m.Messages))
				mg.Add(float64(m.ManagerMessages))
				gl.Add(float64(m.GlobalOps))
			}
			out = append(out, MachineRow{
				Algorithm: name, N: n,
				Makespan:  mk.Summarize(),
				Messages:  ms.Summarize(),
				MgrMsgs:   mg.Summarize(),
				GlobalOps: gl.Summarize(),
			})
		}
	}
	return out, nil
}

// RenderMachineStudy writes the study as a table grouped by N.
func RenderMachineStudy(w io.Writer, cfg MachineStudy, rows []MachineRow) error {
	fmt.Fprintf(w, "Machine-model study: α̂ ~ U[%g, %g], declared α = %g, κ = %g, %d trials\n",
		cfg.Lo, cfg.Hi, cfg.Alpha, cfg.Kappa, cfg.Trials)
	fmt.Fprintf(w, "(model units: bisect=1, send=1, global op=⌈log2 N⌉)\n\n")
	fmt.Fprintf(w, "%8s  %-12s  %12s  %12s  %10s  %10s\n",
		"N", "algorithm", "avg makespan", "avg messages", "mgr msgs", "global ops")
	lastN := 0
	for _, r := range rows {
		if r.N != lastN && lastN != 0 {
			fmt.Fprintln(w)
		}
		lastN = r.N
		fmt.Fprintf(w, "%8d  %-12s  %12.1f  %12.1f  %10.1f  %10.1f\n",
			r.N, r.Algorithm, r.Makespan.Mean, r.Messages.Mean, r.MgrMsgs.Mean, r.GlobalOps.Mean)
	}
	return nil
}
