package searchtree

import "testing"

var sinkTree *Tree

// BenchmarkGenerate builds one default search tree per iteration.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTree = MustGenerate(DefaultGenConfig(uint64(i)))
	}
}
