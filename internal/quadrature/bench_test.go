package quadrature_test

import (
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/quadrature"
)

var sinkProblem bisect.Problem

// BenchmarkBoxBisect measures one median bisection of the 2-D default
// root box: 32 slice masses plus the two child estimates.
func BenchmarkBoxBisect(b *testing.B) {
	root := quadrature.MustRootBox(quadrature.DefaultIntegrand(1), quadrature.SplitMedian, 1e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProblem, _ = root.Bisect()
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
