package core

import (
	"fmt"
	"testing"

	"bisectlb/internal/bisect"
)

// Planner microbenchmarks: the BENCH_core.json grid ({HF, PHF, BA, BA-HF}
// × α × N) is produced by cmd/lbbench from internal/bench, which times the
// same calls; these go-test benchmarks exist for benchstat comparisons and
// run with -benchtime=1x in CI so a build or behaviour regression in any
// cell fails the pipeline (EXPERIMENTS.md X9).

var benchAlphas = []float64{0.1, 0.3, 0.5}

// benchNs reaches N = 2^16, the size at which HF's queue carries most of
// an HF plan's bookkeeping.
var benchNs = []int{64, 1024, 16384, 65536}

func benchPlanner(b *testing.B, run func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error) {
	for _, alpha := range benchAlphas {
		for _, n := range benchNs {
			b.Run(fmt.Sprintf("a%g/n%d", alpha, n), func(b *testing.B) {
				var k bisect.Kernel = bisect.SyntheticKernel{Lo: alpha, Hi: 0.5}
				root := bisect.SyntheticFlatRoot(1, 42)
				pl := NewPlanner(n)
				var plan Plan
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(pl, &plan, k, root, n, alpha); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPlannerHF(b *testing.B) {
	benchPlanner(b, func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
		return pl.HFInto(plan, k, root, n)
	})
}

func BenchmarkPlannerBA(b *testing.B) {
	benchPlanner(b, func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
		return pl.BAInto(plan, k, root, n)
	})
}

func BenchmarkPlannerBAHF(b *testing.B) {
	benchPlanner(b, func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
		return pl.BAHFInto(plan, k, root, n, alpha, 1)
	})
}

func BenchmarkPlannerPHF(b *testing.B) {
	benchPlanner(b, func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
		return pl.PHFInto(plan, k, root, n, alpha)
	})
}

// The Problem-interface entry points at the same sizes: HF and BA over
// the problem kernel, for benchstat against the flat kernels (DESIGN.md
// §10).

func benchInterface(b *testing.B, run func(p bisect.Problem, n int, alpha float64) error) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p := bisect.MustSynthetic(1, 0.1, 0.5, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(p, n, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInterfaceHF(b *testing.B) {
	benchInterface(b, func(p bisect.Problem, n int, alpha float64) error {
		_, err := HF(p, n, Options{})
		return err
	})
}

func BenchmarkInterfaceBA(b *testing.B) {
	benchInterface(b, func(p bisect.Problem, n int, alpha float64) error {
		_, err := BA(p, n, Options{})
		return err
	})
}

// BenchmarkHFHeapVsScan compares HF's queue against the naive
// linear-scan maximum selection of the oracle's oracleHF (DESIGN.md §7).
func BenchmarkHFHeapVsScan(b *testing.B) {
	for _, v := range []struct {
		name string
		hf   func(bisect.Problem, int, Options) (*Result, error)
	}{{"queue", HF}, {"scan", oracleHF}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := bisect.MustSynthetic(1, 0.1, 0.5, uint64(i+1))
				if _, err := v.hf(p, 2048, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortByID times Plan.finalize, whose ID sort dominates it, on the
// hash-mixed IDs of N = 2^14 and 2^16 parts in a shuffled order. Each
// iteration restores the shuffled order with one copy, which is
// included.
func BenchmarkSortByID(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			src := shuffledParts(idPatterns[0].ids(n), 1)
			parts := make([]FlatPart, n)
			var s idSort
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(parts, src)
				finalizeParts(&s, parts)
			}
		})
	}
}
