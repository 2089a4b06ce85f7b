package femtree

import (
	"fmt"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

var (
	sinkProblem bisect.Problem
	sinkTree    *Tree
)

// BenchmarkGenerate builds the default FE-tree of a fresh seed, the first
// step of every served fem request.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTree = MustGenerate(DefaultGenConfig(uint64(i)))
	}
}

// BenchmarkRegionBisect bisects, in turn, the first 256 divisible regions a
// breadth-first walk of a default FE-tree meets, from the whole tree down
// to regions of a few nodes.
func BenchmarkRegionBisect(b *testing.B) {
	var pool []*Region
	for q := []*Region{NewRegion(MustGenerate(DefaultGenConfig(1)))}; len(q) > 0 && len(pool) < 256; q = q[1:] {
		if r := q[0]; r.CanBisect() {
			pool = append(pool, r)
			c1, c2 := r.Bisect()
			q = append(q, c1.(*Region), c2.(*Region))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProblem, _ = pool[i%len(pool)].Bisect()
	}
}

// BenchmarkPlanServed is the per-request work of a served fem balance
// miss: generate the default FE-tree of a fresh seed and plan it with HF
// or BA at the processor counts the service's fem requests use.
func BenchmarkPlanServed(b *testing.B) {
	for _, alg := range []string{"HF", "BA"} {
		for _, n := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s-%d", alg, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					root := NewRegion(MustGenerate(DefaultGenConfig(uint64(i))))
					plan := core.HF
					if alg == "BA" {
						plan = core.BA
					}
					res, err := plan(root, n, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					sinkProblem = res.Parts[0].Problem
				}
			})
		}
	}
}
