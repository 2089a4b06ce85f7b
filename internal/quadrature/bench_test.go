package quadrature_test

import (
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/quadrature"
)

var sinkProblem bisect.Problem

// BenchmarkBoxBisect measures one median bisection of a root box (32 slice
// masses plus the two child estimates) on each sampling path: the served
// 2-D two-peak integrand, which takes the two-peak kernel, and a 2-D
// three-peak and a 3-D oscillatory integrand, which take the generic one.
func BenchmarkBoxBisect(b *testing.B) {
	threePeak, err := quadrature.NewIntegrand(2, [][]float64{{0.2, 0.8}, {0.7, 0.3}, {0.5, 0.5}}, 50, 0.01, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	osc, err := quadrature.OscillatoryIntegrand(3, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ig   *quadrature.Integrand
	}{
		{"served-2d-2peak", quadrature.DefaultIntegrand(1)},
		{"2d-3peak", threePeak},
		{"3d-oscillatory", osc},
	} {
		b.Run(c.name, func(b *testing.B) {
			root := quadrature.MustRootBox(c.ig, quadrature.SplitMedian, 1e-4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkProblem, _ = root.Bisect()
			}
		})
	}
}

// BenchmarkPlanBA1024 plans the served quadrature instance (2-D default
// integrand, median splits) with BA on 1024 processors, the per-request
// work of a quadrature balance miss.
func BenchmarkPlanBA1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := quadrature.MustRootBox(quadrature.DefaultIntegrand(uint64(i)), quadrature.SplitMedian, 1e-4)
		res, err := core.BA(root, 1024, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkProblem = res.Parts[0].Problem
	}
}
