package bisectlb_test

// Benchmark harness: one bench per exhibit of the paper's evaluation
// (DESIGN.md §6) plus the ablation benches of §7. Benchmarks use reduced
// trial counts — they exist to regenerate each exhibit's computation and
// to track the cost of its pieces; cmd/lbsim (-exp table1, figure5,
// machine, …) runs the full-size versions.

import (
	"time"

	"testing"

	"bisectlb"
	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/dist"
	"bisectlb/internal/experiments"
	"bisectlb/internal/machine"
	"bisectlb/internal/topology"
)

// --- E1: Table 1 -----------------------------------------------------------

func benchTriple(b *testing.B, cfg experiments.TripleConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunTriple(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates a reduced Table 1 (α̂ ~ U[0.01, 0.5], κ=1).
func BenchmarkTable1(b *testing.B) {
	benchTriple(b, experiments.TripleConfig{
		Lo: 0.01, Hi: 0.5, Kappa: 1, Trials: 10,
		Ns: experiments.PowersOfTwo(5, 10),
	})
}

// --- E2: Figure 5 ----------------------------------------------------------

// BenchmarkFigure5 regenerates a reduced Figure 5 (α̂ ~ U[0.1, 0.5], κ=1).
func BenchmarkFigure5(b *testing.B) {
	benchTriple(b, experiments.TripleConfig{
		Lo: 0.1, Hi: 0.5, Kappa: 1, Trials: 10,
		Ns: experiments.PowersOfTwo(5, 10),
	})
}

// --- E3: κ-study ------------------------------------------------------------

// BenchmarkKappaStudy regenerates the κ ∈ {1, 2, 3} comparison.
func BenchmarkKappaStudy(b *testing.B) {
	cfg := experiments.DefaultKappaConfig(10, 9, 1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunKappaStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: variance study ------------------------------------------------------

// BenchmarkVarianceStudy regenerates the interval-contrast variance study.
func BenchmarkVarianceStudy(b *testing.B) {
	cfg := experiments.DefaultVarianceStudy(10, 9, 1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunVarianceStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: odd-N study ----------------------------------------------------------

// BenchmarkOddNStudy regenerates the non-power-of-two comparison.
func BenchmarkOddNStudy(b *testing.B) {
	cfg := experiments.DefaultOddNStudy(10, 1)
	cfg.OddNs = []int{37, 100, 523}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunOddNStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: machine-model study --------------------------------------------------

func benchMachine(b *testing.B, run func(p bisect.Problem) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p := bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1))
		if err := run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineHF simulates sequential HF on the machine model (Θ(N)).
func BenchmarkMachineHF(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunHF(p, topology.NewComplete(1<<12), nil)
		return err
	})
}

// BenchmarkMachineBA simulates BA on the machine model (O(log N), no
// global communication).
func BenchmarkMachineBA(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunBA(p, topology.NewComplete(1<<12), nil)
		return err
	})
}

// BenchmarkMachineBAHF simulates BA-HF on the machine model.
func BenchmarkMachineBAHF(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunBAHF(p, topology.NewComplete(1<<12), 0.1, 1.0, nil)
		return err
	})
}

// BenchmarkMachinePHFOracle simulates PHF with constant-time free-processor
// acquisition.
func BenchmarkMachinePHFOracle(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunPHF(p, topology.NewComplete(1<<12), 0.1, machine.Phase1Oracle, nil)
		return err
	})
}

// BenchmarkMachinePHFCentral simulates PHF with the contended central
// free-processor manager.
func BenchmarkMachinePHFCentral(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunPHF(p, topology.NewComplete(1<<12), 0.1, machine.Phase1Central, nil)
		return err
	})
}

// BenchmarkMachinePHFBAPrime simulates PHF with the BA′ bootstrap
// (Section 3.4).
func BenchmarkMachinePHFBAPrime(b *testing.B) {
	benchMachine(b, func(p bisect.Problem) error {
		_, err := machine.RunPHF(p, topology.NewComplete(1<<12), 0.1, machine.Phase1BAPrime, nil)
		return err
	})
}

// --- core algorithm throughput -------------------------------------------------

const benchN = 4096

func benchAlg(b *testing.B, run func(p bisectlb.Problem) error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgHF measures HF partitioning 4096 ways.
func BenchmarkAlgHF(b *testing.B) {
	benchAlg(b, func(p bisectlb.Problem) error {
		_, err := bisectlb.HF(p, benchN)
		return err
	})
}

// BenchmarkAlgBA measures BA partitioning 4096 ways.
func BenchmarkAlgBA(b *testing.B) {
	benchAlg(b, func(p bisectlb.Problem) error {
		_, err := bisectlb.BA(p, benchN)
		return err
	})
}

// BenchmarkAlgBAHF measures BA-HF partitioning 4096 ways.
func BenchmarkAlgBAHF(b *testing.B) {
	benchAlg(b, func(p bisectlb.Problem) error {
		_, err := bisectlb.BAHF(p, benchN, 0.1, 1.0)
		return err
	})
}

// BenchmarkAlgPHF measures logical PHF partitioning 4096 ways.
func BenchmarkAlgPHF(b *testing.B) {
	benchAlg(b, func(p bisectlb.Problem) error {
		_, err := bisectlb.PHF(p, benchN, 0.1)
		return err
	})
}

// --- ablations (DESIGN.md §7) -----------------------------------------------

// BenchmarkBASplitRule compares the best-approximation processor split
// against the naive floor rule, in quality-neutral throughput terms (the
// quality ablation lives in the core test suite).
func BenchmarkBASplitRule(b *testing.B) {
	b.Run("best-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1))
			if _, err := core.BA(p, 2048, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-floor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1))
			if _, err := core.BANaiveSplit(p, 2048, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- substrate bisection costs -----------------------------------------------

// BenchmarkSubstrateBisect measures one bisection on each workload family.
func BenchmarkSubstrateBisect(b *testing.B) {
	b.Run("synthetic", func(b *testing.B) {
		p := bisect.MustSynthetic(1, 0.1, 0.5, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Bisect()
		}
	})
	b.Run("fem-tree", func(b *testing.B) {
		p := bisectlb.DefaultFEMTreeProblem(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Bisect()
		}
	})
	b.Run("quadrature", func(b *testing.B) {
		p, err := bisectlb.NewQuadratureProblem(bisectlb.QuadratureMedianSplit, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Bisect()
		}
	})
	b.Run("search-frontier", func(b *testing.B) {
		p := bisectlb.DefaultSearchTreeProblem(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Bisect()
		}
	})
}

// BenchmarkPlanGraphServed is the per-request work of a served graph
// balance miss: build the seed's instance and plan it with HF or BA at the
// processor counts the service's graph requests use. Each iteration takes
// a fresh seed, so it pays for generation and every bisection.
func BenchmarkPlanGraphServed(b *testing.B) {
	for _, alg := range []string{"HF", "BA"} {
		for _, n := range []int{4, 8, 16, 32} {
			b.Run(alg+"/"+sprint("N", n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := bisectlb.NewGraphProblem(uint64(i + 1))
					if err != nil {
						b.Fatal(err)
					}
					plan := bisectlb.HF
					if alg == "BA" {
						plan = bisectlb.BA
					}
					if _, err := plan(p, n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func sprint(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// --- extension studies ---------------------------------------------------------

// BenchmarkRobustnessStudy regenerates the weight-estimation-noise sweep.
func BenchmarkRobustnessStudy(b *testing.B) {
	cfg := experiments.DefaultRobustnessStudy(5, 1)
	cfg.N = 256
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunRobustnessStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitRuleAblationStudy regenerates the BA split-rule quality
// ablation.
func BenchmarkSplitRuleAblationStudy(b *testing.B) {
	cfg := experiments.DefaultSplitRuleAblation(5, 9, 1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunSplitRuleAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyStudy regenerates the interconnect comparison.
func BenchmarkTopologyStudy(b *testing.B) {
	cfg := experiments.DefaultTopologyStudy(3, 512, 1)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunTopologyStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroBA measures the heterogeneous BA on a mixed-speed machine.
func BenchmarkHeteroBA(b *testing.B) {
	speeds := make([]float64, 1024)
	for i := range speeds {
		speeds[i] = float64(1 + i%7)
	}
	speeds = bisectlb.SortedSpeeds(speeds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bisectlb.HeteroBA(p, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedBA measures a full BA run over a 4-node loopback TCP
// cluster, including cluster setup.
func BenchmarkDistributedBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl, err := dist.StartCluster(64, 4)
		if err != nil {
			b.Fatal(err)
		}
		root, err := dist.Encode(bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		addrs := make([]string, len(cl.Nodes))
		for j, nd := range cl.Nodes {
			addrs[j] = nd.Addr()
		}
		if _, err := cl.Coord.Run(root, 64, addrs, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		cl.Close()
	}
}

// BenchmarkDistributedPHF measures a full PHF run (collectives included)
// over a 4-node loopback TCP cluster.
func BenchmarkDistributedPHF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		root, err := dist.Encode(bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dist.RunPHFCluster(root, 64, 4, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
