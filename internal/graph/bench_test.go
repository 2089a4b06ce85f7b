package graph

import (
	"fmt"
	"testing"
)

var sinkSides []uint8

// BenchmarkBisectSides runs one root bisection of a unit-weight square
// mesh at the default balance slack.
func BenchmarkBisectSides(b *testing.B) {
	for _, side := range []int{20, 64, 128} {
		b.Run(fmt.Sprint(side), func(b *testing.B) {
			h, err := GridGraph(side, side, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := New(h, Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSides = bisectSides(h, p.hiCap(), 1)
			}
		})
	}
}
