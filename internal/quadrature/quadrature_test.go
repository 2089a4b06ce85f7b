package quadrature

import (
	"math"
	"testing"

	"bisectlb/internal/bisect"
)

func TestNewIntegrandValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                       string
		dim                        int
		peaks                      [][]float64
		amplitude, eps, background float64
	}{
		{"dim=0", 0, nil, 1, 0.1, 1},
		{"wrong peak dimension", 2, [][]float64{{0.5}}, 1, 0.1, 1},
		{"eps=0", 2, nil, 1, 0, 1},
		{"background=0", 2, nil, 1, 0.1, 0},
		{"negative amplitude", 2, nil, -1, 0.1, 1},
		{"NaN amplitude", 2, nil, nan, 0.1, 1},
		{"+Inf amplitude", 2, nil, inf, 0.1, 1},
		{"-Inf amplitude", 2, nil, -inf, 0.1, 1},
		{"NaN eps", 2, nil, 1, nan, 1},
		{"+Inf eps", 2, nil, 1, inf, 1},
		{"NaN background", 2, nil, 1, 0.1, nan},
		{"+Inf background", 2, nil, 1, 0.1, inf},
		{"NaN peak coordinate", 2, [][]float64{{0.5, nan}}, 1, 0.1, 1},
		{"+Inf peak coordinate", 2, [][]float64{{inf, 0.5}}, 1, 0.1, 1},
		{"-Inf peak coordinate", 2, [][]float64{{0.5, 0.5}, {-inf, 0.5}}, 1, 0.1, 1},
	}
	for _, c := range cases {
		if _, err := NewIntegrand(c.dim, c.peaks, c.amplitude, c.eps, c.background, 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewIntegrand(2, [][]float64{{0.5, 0.5}}, 0, 0.1, 1, 0); err != nil {
		t.Errorf("zero amplitude rejected: %v", err)
	}
}

func TestDensityPositiveAndPeaked(t *testing.T) {
	ig := DefaultIntegrand(0)
	atPeak := ig.Density([]float64{0.2, 0.8})
	away := ig.Density([]float64{0.99, 0.01})
	if atPeak <= away {
		t.Fatalf("density not peaked: %v at peak vs %v away", atPeak, away)
	}
	if away <= 0 {
		t.Fatal("density must be positive everywhere")
	}
}

func TestRootBoxValidation(t *testing.T) {
	ig := DefaultIntegrand(0)
	if _, err := NewRootBox(nil, SplitMedian, 0.01); err == nil {
		t.Fatal("nil integrand accepted")
	}
	if _, err := NewRootBox(ig, SplitMedian, 0); err == nil {
		t.Fatal("minWidth=0 accepted")
	}
	if _, err := NewRootBox(ig, SplitMedian, 1); err == nil {
		t.Fatal("minWidth=1 accepted")
	}
}

func TestBoxWeightConservation(t *testing.T) {
	for _, mode := range []SplitMode{SplitMedian, SplitMidpoint} {
		b := MustRootBox(DefaultIntegrand(1), mode, 1e-4)
		var walk func(q bisect.Problem, depth int)
		walk = func(q bisect.Problem, depth int) {
			if depth == 0 || !q.CanBisect() {
				return
			}
			c1, c2 := q.Bisect()
			if math.Abs(c1.Weight()+c2.Weight()-q.Weight()) > 1e-9*q.Weight() {
				t.Fatalf("mode %v: %v + %v != %v", mode, c1.Weight(), c2.Weight(), q.Weight())
			}
			if c1.Weight() < c2.Weight() {
				t.Fatalf("mode %v: heavy child must come first", mode)
			}
			walk(c1, depth-1)
			walk(c2, depth-1)
		}
		walk(b, 7)
	}
}

func TestMedianSplitBetterBalancedThanMidpoint(t *testing.T) {
	// Near a density peak the weighted-median cut must produce a split
	// fraction much closer to 1/2 than the geometric midpoint cut. Compare
	// the worst fraction over a few levels.
	worst := func(mode SplitMode) float64 {
		b := MustRootBox(DefaultIntegrand(2), mode, 1e-4)
		w := 0.5
		var walk func(q bisect.Problem, depth int)
		walk = func(q bisect.Problem, depth int) {
			if depth == 0 || !q.CanBisect() {
				return
			}
			c1, c2 := q.Bisect()
			if f := c2.Weight() / q.Weight(); f < w {
				w = f
			}
			walk(c1, depth-1)
			walk(c2, depth-1)
		}
		walk(b, 6)
		return w
	}
	median, midpoint := worst(SplitMedian), worst(SplitMidpoint)
	if median <= midpoint {
		t.Fatalf("median worst fraction %v not better than midpoint %v", median, midpoint)
	}
	if median < 0.3 {
		t.Fatalf("median split worst fraction %v below declared α=0.3", median)
	}
}

func TestBoxIDsContentDerived(t *testing.T) {
	b := MustRootBox(DefaultIntegrand(3), SplitMedian, 1e-4)
	a1, a2 := b.Bisect()
	b1, b2 := b.Bisect()
	if a1.ID() != b1.ID() || a2.ID() != b2.ID() {
		t.Fatal("repeated bisection changed IDs")
	}
	if a1.ID() == a2.ID() || a1.ID() == b.ID() {
		t.Fatal("IDs collide")
	}
}

func TestBoxIndivisibleAtMinWidth(t *testing.T) {
	b := MustRootBox(DefaultIntegrand(4), SplitMidpoint, 0.2)
	// Repeatedly bisect the first child until indivisible.
	var q bisect.Problem = b
	for i := 0; i < 20 && q.CanBisect(); i++ {
		q, _ = q.Bisect()
	}
	if q.CanBisect() {
		t.Fatal("box never became indivisible")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bisect on indivisible box did not panic")
			}
		}()
		q.Bisect()
	}()
}

func TestBoxBoundsAccessors(t *testing.T) {
	b := MustRootBox(DefaultIntegrand(5), SplitMedian, 1e-3)
	lo, hi := b.Bounds()
	if len(lo) != 2 || len(hi) != 2 || lo[0] != 0 || hi[1] != 1 {
		t.Fatalf("bounds wrong: %v %v", lo, hi)
	}
	// Mutating copies must not affect the box.
	lo[0] = 0.5
	lo2, _ := b.Bounds()
	if lo2[0] != 0 {
		t.Fatal("Bounds returned aliasing slices")
	}
}

func TestHighDimensionalBox(t *testing.T) {
	ig, err := NewIntegrand(5, [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5}}, 10, 0.05, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := MustRootBox(ig, SplitMedian, 1e-3)
	c1, c2 := b.Bisect()
	if math.Abs(c1.Weight()+c2.Weight()-b.Weight()) > 1e-9*b.Weight() {
		t.Fatal("5-D weights not conserved")
	}
}

func TestAlphaContractWithGuard(t *testing.T) {
	// The median splitter should satisfy a 0.3-bisector contract over the
	// explored prefix of the tree.
	b := MustRootBox(DefaultIntegrand(6), SplitMedian, 1e-4)
	if v := bisect.Check(b, 0.3, 6, 1e-9); len(v) != 0 {
		t.Fatalf("median splitter violates α=0.3: %v", v[0])
	}
}

func TestOscillatoryIntegrand(t *testing.T) {
	ig, err := OscillatoryIntegrand(2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Difficulty along the diagonal must exceed off-diagonal corners.
	onDiag := ig.Density([]float64{0.4, 0.4})
	offDiag := ig.Density([]float64{0.95, 0.05})
	if onDiag <= offDiag {
		t.Fatalf("diagonal ridge missing: %v vs %v", onDiag, offDiag)
	}
	if _, err := OscillatoryIntegrand(2, 0, 1); err == nil {
		t.Fatal("zero frequency accepted")
	}
	b := MustRootBox(ig, SplitMedian, 1e-4)
	c1, c2 := b.Bisect()
	if math.Abs(c1.Weight()+c2.Weight()-b.Weight()) > 1e-9*b.Weight() {
		t.Fatal("oscillatory weights not conserved")
	}
}

func TestEdgeSingularIntegrand(t *testing.T) {
	ig, err := EdgeSingularIntegrand(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	nearEdge := ig.Density([]float64{0.01, 0.5})
	farEdge := ig.Density([]float64{0.99, 0.5})
	if nearEdge <= farEdge {
		t.Fatalf("edge layer missing: %v vs %v", nearEdge, farEdge)
	}
	// Median splitting should carve thinner slabs toward the hard face:
	// after two levels the box containing the edge must be smaller in x0.
	b := MustRootBox(ig, SplitMedian, 1e-4)
	heavy, _ := b.Bisect()
	lo, hi := heavy.(*Box).Bounds()
	if !(lo[0] == 0 && hi[0] < 0.51) {
		t.Fatalf("heavy half does not hug the singular face: [%v, %v]", lo[0], hi[0])
	}
}

func TestDerivedIntegrandValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		build func() (*Integrand, error)
	}{
		{"oscillatory dim=-1", func() (*Integrand, error) { return OscillatoryIntegrand(-1, 5, 1) }},
		{"oscillatory dim=0", func() (*Integrand, error) { return OscillatoryIntegrand(0, 5, 1) }},
		{"oscillatory frequency=0", func() (*Integrand, error) { return OscillatoryIntegrand(2, 0, 1) }},
		{"oscillatory frequency<0", func() (*Integrand, error) { return OscillatoryIntegrand(2, -3, 1) }},
		{"oscillatory NaN frequency", func() (*Integrand, error) { return OscillatoryIntegrand(2, nan, 1) }},
		{"oscillatory +Inf frequency", func() (*Integrand, error) { return OscillatoryIntegrand(2, inf, 1) }},
		{"oscillatory -Inf frequency", func() (*Integrand, error) { return OscillatoryIntegrand(2, -inf, 1) }},
		{"edge dim=-1", func() (*Integrand, error) { return EdgeSingularIntegrand(-1, 1) }},
		{"edge dim=0", func() (*Integrand, error) { return EdgeSingularIntegrand(0, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ig, err := c.build()
			if err == nil {
				t.Fatalf("accepted: %d peaks", len(ig.Peaks))
			}
		})
	}
}

func TestOscillatoryPeakCount(t *testing.T) {
	cases := []struct {
		frequency float64
		peaks     int
	}{
		{0.5, 1}, {1, 1}, {5.9, 5}, {16, 16}, {17, 16},
		{1e30, 16}, {math.Ldexp(1, 63), 16}, {math.MaxFloat64, 16},
	}
	for _, c := range cases {
		ig, err := OscillatoryIntegrand(2, c.frequency, 1)
		if err != nil {
			t.Fatalf("frequency %v: %v", c.frequency, err)
		}
		if len(ig.Peaks) != c.peaks {
			t.Errorf("frequency %v: %d peaks, want %d", c.frequency, len(ig.Peaks), c.peaks)
		}
	}
}

func TestBisectAllocations(t *testing.T) {
	// The sampling runs on stack tables, on the two-peak path and on the
	// generic one: a bisection allocates only its two children and one
	// bounds array for both.
	osc, err := OscillatoryIntegrand(3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ig   *Integrand
	}{{"2-D default", DefaultIntegrand(1)}, {"3-D oscillatory", osc}} {
		root := MustRootBox(c.ig, SplitMedian, 1e-4)
		if a := testing.AllocsPerRun(100, func() { root.Bisect() }); a > 2 {
			t.Errorf("%s: Bisect made %v allocations, want ≤ 2", c.name, a)
		}
	}
}
