package experiments

import (
	"fmt"
	"io"

	"bisectlb/internal/bisect"
	"bisectlb/internal/machine"
	"bisectlb/internal/stats"
	"bisectlb/internal/topology"
	"bisectlb/internal/xrand"
)

// TopologyStudy quantifies the conclusion's machine-architecture caveat:
// the same algorithms are re-run with point-to-point distances and
// collective costs of concrete interconnection networks instead of the
// idealised unit-cost/⌈log2 N⌉ model. Expected shape: BA barely notices the
// topology (local sends, no collectives), while PHF's makespan inflates
// with the collective cost — mildly on hypercubes and fat-trees, severely
// on meshes and rings.
type TopologyStudy struct {
	Lo, Hi float64
	Alpha  float64
	N      int
	Trials int
	Seed   uint64
}

// DefaultTopologyStudy uses the paper's α̂ ~ U[0.1, 0.5] model.
func DefaultTopologyStudy(trials, n int, seed uint64) TopologyStudy {
	return TopologyStudy{Lo: 0.1, Hi: 0.5, Alpha: 0.1, N: n, Trials: trials, Seed: seed}
}

// TopologyRow aggregates one (topology, algorithm) cell.
type TopologyRow struct {
	Topology  string
	Algorithm string
	Makespan  stats.Summary
	Messages  stats.Summary
	GlobalOps stats.Summary
}

// RunTopologyStudy executes the sweep.
func RunTopologyStudy(cfg TopologyStudy) ([]TopologyRow, error) {
	if cfg.Trials < 1 || cfg.N < 1 {
		return nil, fmt.Errorf("experiments: empty topology study configuration")
	}
	variants := []struct {
		name string
		run  machineRun
	}{
		{"BA", func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunBA(p, topo, nil)
		}},
		{"PHF", func(p bisect.Problem, topo topology.Topology) (*machine.Metrics, error) {
			return machine.RunPHF(p, topo, cfg.Alpha, machine.Phase1Oracle, nil)
		}},
	}
	var out []TopologyRow
	for _, topo := range topology.All(cfg.N) {
		for _, v := range variants {
			mk := stats.NewSample(cfg.Trials)
			ms := stats.NewSample(cfg.Trials)
			gl := stats.NewSample(cfg.Trials)
			seedGen := xrand.New(cfg.Seed)
			for trial := 0; trial < cfg.Trials; trial++ {
				p := bisect.MustSynthetic(1, cfg.Lo, cfg.Hi, seedGen.Uint64())
				m, err := v.run(p, topo)
				if err != nil {
					return nil, err
				}
				mk.Add(float64(m.Makespan))
				ms.Add(float64(m.Messages))
				gl.Add(float64(m.GlobalOps))
			}
			out = append(out, TopologyRow{
				Topology:  topo.Name(),
				Algorithm: v.name,
				Makespan:  mk.Summarize(),
				Messages:  ms.Summarize(),
				GlobalOps: gl.Summarize(),
			})
		}
	}
	return out, nil
}

// RenderTopologyStudy writes the sweep grouped by topology.
func RenderTopologyStudy(w io.Writer, cfg TopologyStudy, rows []TopologyRow) error {
	fmt.Fprintf(w, "Topology study: N = %d, α̂ ~ U[%g, %g], declared α = %g, %d trials\n",
		cfg.N, cfg.Lo, cfg.Hi, cfg.Alpha, cfg.Trials)
	fmt.Fprintf(w, "(send cost = hop distance; collectives cost the topology's reduction time)\n\n")
	fmt.Fprintf(w, "%-10s  %-5s  %13s  %13s  %11s\n",
		"topology", "alg", "avg makespan", "avg messages", "global ops")
	last := ""
	for _, r := range rows {
		if r.Topology != last && last != "" {
			fmt.Fprintln(w)
		}
		last = r.Topology
		fmt.Fprintf(w, "%-10s  %-5s  %13.1f  %13.1f  %11.1f\n",
			r.Topology, r.Algorithm, r.Makespan.Mean, r.Messages.Mean, r.GlobalOps.Mean)
	}
	return nil
}
