package quadrature

import (
	"math"
	"testing"
)

// FuzzBoxBisect checks the two-peak 2-D sampling path against the frozen
// oracle. The inputs pick the integrand (peak coordinates anywhere, so
// peaks may lie outside the unit square; amplitude, eps and background
// folded into NewIntegrand's bounds), the split mode, the width floor and a
// path from the root: bit i of path chooses the heavy (0) or the light (1)
// child at depth i. Every bisection along the path must match the oracle
// bit for bit, and the walk ends where the oracle finds a box indivisible.
func FuzzBoxBisect(f *testing.F) {
	f.Add(0.2, 0.8, 0.7, 0.3, 50.0, 0.01, 1.0, 1e-4, uint8(0), uint64(0))
	f.Add(0.35, 0.6, 1.3, -0.2, 12.5, 0.004, 0.6, 1e-3, uint8(0), uint64(0xa5a5a5a5))
	f.Add(0.5, 0.5, 0.5, 0.5, 0.0, 1.0, 2.0, 0.05, uint8(1), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, p0x, p0y, p1x, p1y, amp, eps, bg, minWidth float64, mode uint8, path uint64) {
		peaks := [][]float64{{finite(p0x), finite(p0y)}, {finite(p1x), finite(p1y)}}
		ig, err := NewIntegrand(2, peaks, fold(amp, 0, 1e3), fold(eps, 1e-6, 1), fold(bg, 1e-6, 10), path)
		if err != nil {
			t.Fatalf("folded inputs rejected: %v", err)
		}
		if !ig.twoPeak2D() {
			t.Fatal("a two-peak 2-D integrand is off the two-peak path")
		}
		b := MustRootBox(ig, SplitMode(mode&1), fold(minWidth, 1e-5, 0.2))
		ones := []float64{1, 1}
		checkAgainstOracle(t, b, oracleChild{
			lo: []float64{0, 0}, hi: ones,
			weight: oracleEstimate(ig, []float64{0, 0}, ones),
			id:     oracleID(ig, []float64{0, 0}, ones),
		}, "root")
		for depth := 0; depth < 64; depth++ {
			heavy, light, ok := oracleBisect(b)
			if b.CanBisect() != ok {
				t.Fatalf("depth %d [%v, %v]: CanBisect %v, oracle %v", depth, b.lo, b.hi, b.CanBisect(), ok)
			}
			if !ok {
				return
			}
			c1, c2 := b.Bisect()
			checkAgainstOracle(t, c1.(*Box), heavy, "heavy child")
			checkAgainstOracle(t, c2.(*Box), light, "light child")
			b = c1.(*Box)
			if path>>depth&1 == 1 {
				b = c2.(*Box)
			}
		}
	})
}

// finite returns v, or 0.5 when v is NaN or infinite.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return v
}

// fold maps any v into [lo, lo+span): |v| modulo span, shifted by lo.
func fold(v, lo, span float64) float64 {
	return lo + math.Mod(math.Abs(finite(v)), span)
}
