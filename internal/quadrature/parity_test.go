package quadrature

import (
	"fmt"
	"math"
	"testing"

	"bisectlb/internal/xrand"
)

// The oracle below is a frozen copy of the straightforward sampler: it
// evaluates the density point by point with a coordinate odometer. The
// production bisector must reproduce its weights, IDs, indivisibility and
// child order bit for bit.

func oracleDensity(ig *Integrand, x []float64) float64 {
	g := ig.Background
	for _, p := range ig.Peaks {
		d2 := 0.0
		for i := range p {
			d := x[i] - p[i]
			d2 += d * d
		}
		g += ig.Amplitude / (ig.Eps + d2)
	}
	return g
}

func oracleEstimate(ig *Integrand, lo, hi []float64) float64 {
	d := ig.Dim
	per := 8
	if d > 3 {
		per = 3
	}
	x := make([]float64, d)
	vol := 1.0
	for i := range lo {
		vol *= hi[i] - lo[i]
	}
	total := 0.0
	n := 1
	for i := 0; i < d; i++ {
		n *= per
	}
	for k := 0; k < n; k++ {
		rem := k
		for i := 0; i < d; i++ {
			cell := rem % per
			rem /= per
			frac := (float64(cell) + 0.5) / float64(per)
			x[i] = lo[i] + frac*(hi[i]-lo[i])
		}
		total += oracleDensity(ig, x)
	}
	return vol * total / float64(n)
}

func oracleSliceMass(ig *Integrand, blo, bhi []float64, ax int, lo, hi float64) float64 {
	d := ig.Dim
	per := 4
	x := make([]float64, d)
	n := 1
	for i := 0; i < d; i++ {
		n *= per
	}
	total := 0.0
	for k := 0; k < n; k++ {
		rem := k
		for i := 0; i < d; i++ {
			cell := rem % per
			rem /= per
			frac := (float64(cell) + 0.5) / float64(per)
			if i == ax {
				x[i] = lo + frac*(hi-lo)
			} else {
				x[i] = blo[i] + frac*(bhi[i]-blo[i])
			}
		}
		total += oracleDensity(ig, x)
	}
	vol := hi - lo
	for i := 0; i < d; i++ {
		if i != ax {
			vol *= bhi[i] - blo[i]
		}
	}
	return vol * total / float64(n)
}

func oracleMedianAlong(ig *Integrand, lo, hi []float64, ax int) float64 {
	const slices = 32
	masses := make([]float64, slices)
	total := 0.0
	for s := 0; s < slices; s++ {
		a := lo[ax] + float64(s)/slices*(hi[ax]-lo[ax])
		b := lo[ax] + float64(s+1)/slices*(hi[ax]-lo[ax])
		m := oracleSliceMass(ig, lo, hi, ax, a, b)
		masses[s] = m
		total += m
	}
	half := total / 2
	run := 0.0
	for s := 0; s < slices; s++ {
		if run+masses[s] >= half {
			frac := 0.5
			if masses[s] > 0 {
				frac = (half - run) / masses[s]
			}
			return lo[ax] + (float64(s)+frac)/slices*(hi[ax]-lo[ax])
		}
		run += masses[s]
	}
	return (lo[ax] + hi[ax]) / 2
}

func oracleID(ig *Integrand, lo, hi []float64) uint64 {
	h := ig.salt
	for i := range lo {
		h = xrand.Mix(h, math.Float64bits(lo[i]))
		h = xrand.Mix(h, math.Float64bits(hi[i]))
	}
	return h
}

func oracleLongestAxis(lo, hi []float64) int {
	best, bestExt := 0, hi[0]-lo[0]
	for i := 1; i < len(lo); i++ {
		if ext := hi[i] - lo[i]; ext > bestExt {
			best, bestExt = i, ext
		}
	}
	return best
}

// oracleChild is one child as the oracle computes it.
type oracleChild struct {
	lo, hi []float64
	weight float64
	id     uint64
}

// oracleBisect returns the heavy and the light child of b, or ok=false when
// the oracle finds b indivisible.
func oracleBisect(b *Box) (heavy, light oracleChild, ok bool) {
	ax := oracleLongestAxis(b.lo, b.hi)
	if !(b.hi[ax]-b.lo[ax] > 2*b.minWidth) {
		return heavy, light, false
	}
	var cut float64
	if b.mode == SplitMidpoint {
		cut = (b.lo[ax] + b.hi[ax]) / 2
	} else {
		cut = oracleMedianAlong(b.ig, b.lo, b.hi, ax)
	}
	min := b.lo[ax] + b.minWidth
	max := b.hi[ax] - b.minWidth
	if cut < min {
		cut = min
	}
	if cut > max {
		cut = max
	}
	mk := func(lo, hi float64) oracleChild {
		c := oracleChild{
			lo: append([]float64(nil), b.lo...),
			hi: append([]float64(nil), b.hi...),
		}
		c.lo[ax], c.hi[ax] = lo, hi
		c.weight = oracleEstimate(b.ig, c.lo, c.hi)
		c.id = oracleID(b.ig, c.lo, c.hi)
		return c
	}
	left, right := mk(b.lo[ax], cut), mk(cut, b.hi[ax])
	sum := left.weight + right.weight
	left.weight = b.weight * (left.weight / sum)
	right.weight = b.weight - left.weight
	if left.weight >= right.weight {
		return left, right, true
	}
	return right, left, true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkAgainstOracle(t *testing.T, got *Box, want oracleChild, what string) {
	t.Helper()
	if math.Float64bits(got.weight) != math.Float64bits(want.weight) {
		t.Fatalf("%s: weight %v, oracle %v", what, got.weight, want.weight)
	}
	if got.id != want.id {
		t.Fatalf("%s: id %x, oracle %x", what, got.id, want.id)
	}
	if !sameBits(got.lo, want.lo) || !sameBits(got.hi, want.hi) {
		t.Fatalf("%s: bounds [%v, %v], oracle [%v, %v]", what, got.lo, got.hi, want.lo, want.hi)
	}
}

type namedIntegrand struct {
	name string
	ig   *Integrand
}

// parityIntegrands returns the integrands the parity walk covers in
// dimension d: two two-peak integrands in 2-D (the default, and one with
// other amplitude, eps and background and a peak outside the unit square),
// the oscillatory and edge-singular shapes, a custom three-peak integrand
// and a peakless one.
func parityIntegrands(t *testing.T, d int) []namedIntegrand {
	t.Helper()
	var out []namedIntegrand
	if d == 2 {
		outside, err := NewIntegrand(2, [][]float64{{0.35, 0.6}, {1.3, -0.2}}, 12.5, 0.004, 0.6, 16)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedIntegrand{"default", DefaultIntegrand(11)},
			namedIntegrand{"twopeak-outside", outside})
	}
	osc, err := OscillatoryIntegrand(d, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := EdgeSingularIntegrand(d, 13)
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([][]float64, 3)
	for k := range peaks {
		peaks[k] = make([]float64, d)
		for i := range peaks[k] {
			peaks[k][i] = math.Mod(0.137*float64(k+1)+0.291*float64(i+1), 1)
		}
	}
	custom, err := NewIntegrand(d, peaks, 7.5, 0.003, 0.25, 14)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewIntegrand(d, nil, 0, 1, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedIntegrand{"oscillatory", osc}, namedIntegrand{"edge", edge},
		namedIntegrand{"custom3", custom}, namedIntegrand{"flat", flat})
}

// TestBisectMatchesOracle walks boxes breadth-first and compares every
// bisection with the oracle: weight bits, IDs, bounds, CanBisect and the
// heavy-first child order.
func TestBisectMatchesOracle(t *testing.T) {
	for d := 1; d <= 5; d++ {
		budget := 400 // boxes bisected per (integrand, mode, width)
		if d >= 4 {
			budget = 40
		}
		for _, ni := range parityIntegrands(t, d) {
			ig := ni.ig
			for _, mode := range []SplitMode{SplitMedian, SplitMidpoint} {
				for _, minWidth := range []float64{1e-4, 0.05} {
					t.Run(fmt.Sprintf("d=%d/%s/mode=%d/min=%g", d, ni.name, mode, minWidth), func(t *testing.T) {
						root := MustRootBox(ig, mode, minWidth)
						ones := make([]float64, d)
						for i := range ones {
							ones[i] = 1
						}
						checkAgainstOracle(t, root, oracleChild{
							lo: make([]float64, d), hi: ones,
							weight: oracleEstimate(ig, make([]float64, d), ones),
							id:     oracleID(ig, make([]float64, d), ones),
						}, "root")
						queue := []*Box{root}
						for done := 0; len(queue) > 0 && done < budget; done++ {
							b := queue[0]
							queue = queue[1:]
							heavy, light, ok := oracleBisect(b)
							if b.CanBisect() != ok {
								t.Fatalf("box %d [%v, %v]: CanBisect %v, oracle %v", done, b.lo, b.hi, b.CanBisect(), ok)
							}
							if !ok {
								continue
							}
							c1, c2 := b.Bisect()
							checkAgainstOracle(t, c1.(*Box), heavy, fmt.Sprintf("box %d heavy child", done))
							checkAgainstOracle(t, c2.(*Box), light, fmt.Sprintf("box %d light child", done))
							queue = append(queue, c1.(*Box), c2.(*Box))
						}
					})
				}
			}
		}
	}
}
