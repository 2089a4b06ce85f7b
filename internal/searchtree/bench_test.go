package searchtree

import (
	"testing"

	"bisectlb/internal/bisect"
)

var (
	sinkTree    *Tree
	sinkProblem bisect.Problem
)

// BenchmarkGenerate builds one default search tree per iteration.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTree = MustGenerate(DefaultGenConfig(uint64(i)))
	}
}

// BenchmarkFrontierBisect bisects, in turn, the first 1024 divisible
// frontiers a breadth-first walk of a default tree meets: the mix of
// single-node frontiers (expanded into their children) and multi-node ones
// a plan of up to 1024 parts bisects.
func BenchmarkFrontierBisect(b *testing.B) {
	var pool []*Frontier
	for q := []*Frontier{NewFrontier(MustGenerate(DefaultGenConfig(1)))}; len(q) > 0 && len(pool) < 1024; q = q[1:] {
		if f := q[0]; f.CanBisect() {
			pool = append(pool, f)
			c1, c2 := f.Bisect()
			q = append(q, c1.(*Frontier), c2.(*Frontier))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkProblem, _ = pool[i%len(pool)].Bisect()
	}
}
