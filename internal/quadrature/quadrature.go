// Package quadrature provides the multi-dimensional adaptive numerical
// quadrature substrate the paper lists among the applications of
// bisection-based load balancing (ref [4], Bonk's adaptive quadrature).
//
// A problem is an axis-aligned box together with an integrand difficulty
// model; its weight is the estimated adaptive-quadrature work for the box
// (the integral of a local difficulty density). Bisecting a box cuts it
// with an axis-aligned plane placed at the weighted median of the density
// along the box's longest axis, so both halves carry close to half the
// work — a naturally good bisector. A midpoint-splitting mode is provided
// as the deliberately worse bisector for comparison experiments.
//
// Substitution note (DESIGN.md §4): child weights are estimated by
// deterministic midpoint sampling and then normalised to sum exactly to the
// parent weight, preserving the additive-weight contract of Definition 1
// while keeping the difficulty estimate realistic.
package quadrature

import (
	"fmt"
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// Integrand describes the difficulty density g(x) ≥ 0 over [0,1]^d. The
// estimated work for a box is ∫_box g.
type Integrand struct {
	// Dim is the dimensionality d ≥ 1.
	Dim int
	// Peaks are points of concentrated difficulty (e.g. integrable
	// singularities); each contributes amplitude/(eps + |x−p|²).
	Peaks [][]float64
	// Amplitude and Eps control peak strength and sharpness.
	Amplitude float64
	Eps       float64
	// Background is the smooth base density.
	Background float64
	// salt folds the integrand identity into problem IDs.
	salt uint64
}

// NewIntegrand validates and returns an integrand model.
func NewIntegrand(dim int, peaks [][]float64, amplitude, eps, background float64, seed uint64) (*Integrand, error) {
	if err := checkDim(dim); err != nil {
		return nil, err
	}
	for _, p := range peaks {
		if len(p) != dim {
			return nil, fmt.Errorf("quadrature: peak %v has wrong dimension", p)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("quadrature: peak %v has a non-finite coordinate", p)
			}
		}
	}
	if !(eps > 0) || !(amplitude >= 0) || !(background > 0) ||
		math.IsInf(eps, 1) || math.IsInf(amplitude, 1) || math.IsInf(background, 1) {
		return nil, fmt.Errorf("quadrature: need finite eps > 0, amplitude ≥ 0, background > 0")
	}
	return &Integrand{
		Dim: dim, Peaks: peaks, Amplitude: amplitude, Eps: eps,
		Background: background, salt: xrand.Mix(seed, 0x9ad),
	}, nil
}

func checkDim(dim int) error {
	if dim < 1 {
		return fmt.Errorf("quadrature: dimension %d must be ≥ 1", dim)
	}
	return nil
}

// DefaultIntegrand is a 2-D model with two off-centre peaks, resembling the
// corner singularities of the FEM examples.
func DefaultIntegrand(seed uint64) *Integrand {
	ig, err := NewIntegrand(2,
		[][]float64{{0.2, 0.8}, {0.7, 0.3}},
		50, 0.01, 1, seed)
	if err != nil {
		panic(err)
	}
	return ig
}

// OscillatoryIntegrand models a high-frequency oscillatory integrand whose
// quadrature difficulty is uniform plus a ridge along the diagonal — a
// second canonical shape from adaptive-quadrature practice. Frequency
// controls how sharply the ridge concentrates; it must be finite and
// positive, and above 16 it gives the same 16-peak chain.
func OscillatoryIntegrand(dim int, frequency float64, seed uint64) (*Integrand, error) {
	if err := checkDim(dim); err != nil {
		return nil, err
	}
	if !(frequency > 0) || math.IsInf(frequency, 1) {
		return nil, fmt.Errorf("quadrature: frequency %v must be finite and positive", frequency)
	}
	// Realised as a chain of peaks along the main diagonal, spaced by
	// 1/frequency; the generic peak machinery then applies unchanged.
	// Clamping before the conversion keeps int() in range.
	var peaks [][]float64
	count := max(int(min(frequency, 16)), 1)
	for k := 1; k <= count; k++ {
		p := make([]float64, dim)
		for i := range p {
			p[i] = float64(k) / float64(count+1)
		}
		peaks = append(peaks, p)
	}
	return NewIntegrand(dim, peaks, 10, 0.02, 1, seed)
}

// EdgeSingularIntegrand concentrates difficulty along the x₀ = 0 face,
// modelling boundary-layer integrands. It is built from peaks spread along
// that face.
func EdgeSingularIntegrand(dim int, seed uint64) (*Integrand, error) {
	if err := checkDim(dim); err != nil {
		return nil, err
	}
	var peaks [][]float64
	for k := 1; k <= 5; k++ {
		p := make([]float64, dim)
		for i := 1; i < dim; i++ {
			p[i] = float64(k) / 6
		}
		peaks = append(peaks, p)
	}
	return NewIntegrand(dim, peaks, 30, 0.02, 1, seed)
}

// Density evaluates g at x.
func (ig *Integrand) Density(x []float64) float64 {
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

// SplitMode selects the bisection strategy for boxes.
type SplitMode int

const (
	// SplitMedian cuts at the weighted median of the density along the
	// longest axis — the "good bisector".
	SplitMedian SplitMode = iota
	// SplitMidpoint cuts at the geometric midpoint — a weaker bisector
	// whose α̂ degrades near peaks; used in comparison experiments.
	SplitMidpoint
)

// samplesPerAxis is the deterministic midpoint-rule resolution used for
// weight estimation. 8^2 = 64 evaluations per 2-D box keeps estimates
// stable without dominating run time.
const samplesPerAxis = 8

// Box is an axis-aligned sub-box of the unit cube with its estimated work.
// Box implements bisect.Problem; its identity derives from its bounds, so
// every algorithm bisecting the same box sees identical children.
type Box struct {
	ig       *Integrand
	lo, hi   []float64
	weight   float64
	mode     SplitMode
	minWidth float64
	id       uint64
}

var _ bisect.Problem = (*Box)(nil)

// NewRootBox returns the unit cube with its estimated total work.
// minWidth > 0 bounds how thin a box may become before it is indivisible.
func NewRootBox(ig *Integrand, mode SplitMode, minWidth float64) (*Box, error) {
	if ig == nil {
		return nil, fmt.Errorf("quadrature: nil integrand")
	}
	if !(minWidth > 0) || minWidth >= 1 {
		return nil, fmt.Errorf("quadrature: minWidth %v outside (0, 1)", minWidth)
	}
	lo := make([]float64, ig.Dim)
	hi := make([]float64, ig.Dim)
	for i := range hi {
		hi[i] = 1
	}
	b := &Box{ig: ig, lo: lo, hi: hi, mode: mode, minWidth: minWidth}
	b.weight = b.estimate()
	b.id = b.computeID()
	return b, nil
}

// MustRootBox is NewRootBox that panics on error.
func MustRootBox(ig *Integrand, mode SplitMode, minWidth float64) *Box {
	b, err := NewRootBox(ig, mode, minWidth)
	if err != nil {
		panic(err)
	}
	return b
}

// stackTable is the number of distance-table entries kept on the stack;
// integrands with more peaks × dimensions × cells spill to the heap.
const stackTable = 128

// table returns buf[:n] when it fits, else a fresh slice of length n.
func table(buf []float64, n int) []float64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

// Cell centres (c + 0.5)/per of the midpoint rules: estimate's grid (a
// coarser one above three dimensions) and medianAlong's slice grid.
var (
	estimateCentres   = centres(samplesPerAxis)
	estimateCentresHD = centres(3)
	sliceCentres      = centres(4)
)

func centres(per int) []float64 {
	f := make([]float64, per)
	for c := range f {
		f[c] = (float64(c) + 0.5) / float64(per)
	}
	return f
}

// axisTable fills t[c·P+k] with (x_c − p_k[ax])² for the cell midpoints
// x_c = lo + frac[c]·(hi − lo) along axis ax and the P peaks p_k. The point
// and the squared distance are computed with Density's expressions, so
// each entry equals the term Density adds for that axis.
func (ig *Integrand) axisTable(t []float64, ax int, frac []float64, lo, hi float64) {
	peaks := ig.Peaks
	for c, f := range frac {
		x := lo + f*(hi-lo)
		row := t[c*len(peaks) : (c+1)*len(peaks)]
		row = row[:len(peaks)]
		for k, p := range peaks {
			d := x - p[ax]
			row[k] = d * d
		}
	}
}

// gridSum returns Σ Density(x) over the per^d midpoint grid whose axis-i
// distance terms are tab[(i·per+c)·P+k]. It adds in Density's order (axes
// within a squared distance, then peaks) and visits the points with axis 0
// fastest, so the result is bit-identical to evaluating Density point by
// point.
func (ig *Integrand) gridSum(tab []float64, per int) float64 {
	d, np := ig.Dim, len(ig.Peaks)
	row := per * np
	bg, amp, eps := ig.Background, ig.Amplitude, ig.Eps
	total := 0.0
	// off[i] is the table offset of the current cell along axis i.
	var offBuf [8]int
	off := offBuf[:0]
	if d > len(offBuf) {
		off = make([]int, 0, d)
	}
	n := 1
	for i := 0; i < d; i++ {
		off = append(off, i*row)
		n *= per
	}
	for k := 0; k < n; k++ {
		g := bg
		for pk := 0; pk < np; pk++ {
			d2 := 0.0
			for _, o := range off {
				d2 += tab[o+pk]
			}
			g += amp / (eps + d2)
		}
		total += g
		for i := range off {
			if off[i] += np; off[i] < (i+1)*row {
				break
			}
			off[i] = i * row
		}
	}
	return total
}

// twoPeakTerms holds one axis's squared distances to the two peaks of a
// two-peak 2-D integrand at up to samplesPerAxis cell centres.
type twoPeakTerms struct{ p0, p1 [samplesPerAxis]float64 }

// fill sets the terms for the cell centres x_c = lo + frac[c]·(hi − lo)
// along axis ax, with axisTable's expressions.
func (t *twoPeakTerms) fill(ig *Integrand, ax int, frac []float64, lo, hi float64) {
	q0, q1 := ig.Peaks[0][ax], ig.Peaks[1][ax]
	for c, f := range frac {
		x := lo + f*(hi-lo)
		d0, d1 := x-q0, x-q1
		t.p0[c], t.p1[c] = d0*d0, d1*d1
	}
}

// twoPeak2D reports whether ig has the served shape (d = 2, two peaks),
// which the bisector samples with twoPeakSum instead of gridSum.
func (ig *Integrand) twoPeak2D() bool { return ig.Dim == 2 && len(ig.Peaks) == 2 }

// twoPeakSum is gridSum for a two-peak 2-D integrand whose axis-0 and
// axis-1 terms are t0 and t1 over a per×per grid. Each point adds peak 0
// then peak 1 to the background, each squared distance being its axis-0
// term plus its axis-1 term, and the points are visited with axis 0
// fastest: Density's order, so the sum is bit-identical to gridSum's.
func (ig *Integrand) twoPeakSum(t0, t1 *twoPeakTerms, per int) float64 {
	bg, amp, eps := ig.Background, ig.Amplitude, ig.Eps
	a0, a1 := t0.p0[:per], t0.p1[:per]
	b0, b1 := t1.p0[:per], t1.p1[:per]
	total := 0.0
	for c1, v0 := range b0 {
		v1 := b1[c1]
		for c0, u0 := range a0 {
			g := bg
			g += amp / (eps + (u0 + v0))
			g += amp / (eps + (a1[c0] + v1))
			total += g
		}
	}
	return total
}

// estimate integrates the density over the box with a midpoint rule on a
// fixed samplesPerAxis^d grid (capped grid for high dimensions).
func (b *Box) estimate() float64 {
	if b.ig.twoPeak2D() {
		var t [2]twoPeakTerms
		for i := range t {
			t[i].fill(b.ig, i, estimateCentres, b.lo[i], b.hi[i])
		}
		vol := (b.hi[0] - b.lo[0]) * (b.hi[1] - b.lo[1])
		return vol * b.ig.twoPeakSum(&t[0], &t[1], samplesPerAxis) / (samplesPerAxis * samplesPerAxis)
	}
	d := b.ig.Dim
	frac := estimateCentres
	if d > 3 {
		frac = estimateCentresHD // keep sample counts bounded in high dimensions
	}
	per := len(frac)
	row := per * len(b.ig.Peaks)
	var buf [stackTable]float64
	tab := table(buf[:], d*row)
	vol := 1.0
	n := 1
	for i := 0; i < d; i++ {
		vol *= b.hi[i] - b.lo[i]
		n *= per
		b.ig.axisTable(tab[i*row:], i, frac, b.lo[i], b.hi[i])
	}
	return vol * b.ig.gridSum(tab, per) / float64(n)
}

func (b *Box) computeID() uint64 {
	h := b.ig.salt
	for i := range b.lo {
		h = xrand.Mix(h, math.Float64bits(b.lo[i]))
		h = xrand.Mix(h, math.Float64bits(b.hi[i]))
	}
	return h
}

// Weight returns the box's estimated quadrature work.
func (b *Box) Weight() float64 { return b.weight }

// ID returns the bounds-derived identifier.
func (b *Box) ID() uint64 { return b.id }

// Bounds returns copies of the box bounds.
func (b *Box) Bounds() (lo, hi []float64) {
	return append([]float64(nil), b.lo...), append([]float64(nil), b.hi...)
}

// longestAxis returns the axis of maximal extent (smallest index on ties).
func (b *Box) longestAxis() int {
	best, bestExt := 0, b.hi[0]-b.lo[0]
	for i := 1; i < len(b.lo); i++ {
		if ext := b.hi[i] - b.lo[i]; ext > bestExt {
			best, bestExt = i, ext
		}
	}
	return best
}

// CanBisect reports whether the longest axis still exceeds the width floor.
func (b *Box) CanBisect() bool {
	ax := b.longestAxis()
	return b.hi[ax]-b.lo[ax] > 2*b.minWidth
}

// Bisect cuts the box along its longest axis. In SplitMedian mode the cut
// sits at the weighted median of the 1-D marginal density (clamped so both
// halves keep at least minWidth); in SplitMidpoint mode at the centre.
// Child work estimates are normalised to sum exactly to the parent weight.
func (b *Box) Bisect() (bisect.Problem, bisect.Problem) {
	if !b.CanBisect() {
		panic("quadrature: Bisect on indivisible box")
	}
	ax := b.longestAxis()
	var cut float64
	if b.mode == SplitMidpoint {
		cut = (b.lo[ax] + b.hi[ax]) / 2
	} else {
		cut = b.medianAlong(ax)
	}
	// Clamp so no degenerate slivers appear.
	min := b.lo[ax] + b.minWidth
	max := b.hi[ax] - b.minWidth
	if cut < min {
		cut = min
	}
	if cut > max {
		cut = max
	}
	// One allocation for both children and one for their bounds.
	d := len(b.lo)
	pair := new([2]Box)
	bounds := make([]float64, 4*d)
	left, right := &pair[0], &pair[1]
	b.child(left, bounds[:2*d:2*d], ax, b.lo[ax], cut)
	b.child(right, bounds[2*d:], ax, cut, b.hi[ax])
	// Normalise: the midpoint-rule estimates of the halves do not add up
	// exactly to the parent's estimate; scale them so Definition 1's
	// additivity holds exactly.
	sum := left.weight + right.weight
	left.weight = b.weight * (left.weight / sum)
	right.weight = b.weight - left.weight
	if left.weight >= right.weight {
		return left, right
	}
	return right, left
}

// child fills c with b's bounds, restricted to [lo, hi] along axis ax, in
// the 2·d-long bounds array, and with its estimated weight and ID.
func (b *Box) child(c *Box, bounds []float64, ax int, lo, hi float64) {
	d := len(b.lo)
	*c = Box{
		ig:       b.ig,
		lo:       bounds[:d:d],
		hi:       bounds[d : 2*d : 2*d],
		mode:     b.mode,
		minWidth: b.minWidth,
	}
	copy(c.lo, b.lo)
	copy(c.hi, b.hi)
	c.lo[ax], c.hi[ax] = lo, hi
	c.weight = c.estimate()
	c.id = c.computeID()
}

// medianAlong locates the coordinate where the cumulative marginal density
// along axis ax reaches half the box's mass, via sampling and linear
// interpolation. Each slice's mass is a coarse 4^d midpoint rule over the
// box with axis ax restricted to the slice; the distance tables of the
// other axes are shared by all slices.
func (b *Box) medianAlong(ax int) float64 {
	const slices = 32
	d, per := b.ig.Dim, len(sliceCentres)
	two := b.ig.twoPeak2D()
	var terms [2]twoPeakTerms
	row := per * len(b.ig.Peaks)
	var buf [stackTable]float64
	var tab []float64
	if !two {
		tab = table(buf[:], d*row)
	}
	n := 1
	for i := 0; i < d; i++ {
		n *= per
		switch {
		case i == ax:
		case two:
			terms[i].fill(b.ig, i, sliceCentres, b.lo[i], b.hi[i])
		default:
			b.ig.axisTable(tab[i*row:], i, sliceCentres, b.lo[i], b.hi[i])
		}
	}
	var masses [slices]float64
	total := 0.0
	for s := 0; s < slices; s++ {
		lo := b.lo[ax] + float64(s)/slices*(b.hi[ax]-b.lo[ax])
		hi := b.lo[ax] + float64(s+1)/slices*(b.hi[ax]-b.lo[ax])
		vol := hi - lo
		for i := 0; i < d; i++ {
			if i != ax {
				vol *= b.hi[i] - b.lo[i]
			}
		}
		var sum float64
		if two {
			terms[ax].fill(b.ig, ax, sliceCentres, lo, hi)
			sum = b.ig.twoPeakSum(&terms[0], &terms[1], per)
		} else {
			b.ig.axisTable(tab[ax*row:], ax, sliceCentres, lo, hi)
			sum = b.ig.gridSum(tab, per)
		}
		m := vol * sum / float64(n)
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
			return b.lo[ax] + (float64(s)+frac)/slices*(b.hi[ax]-b.lo[ax])
		}
		run += masses[s]
	}
	return (b.lo[ax] + b.hi[ax]) / 2
}
