package bisect

import "bisectlb/internal/xrand"

// The frozen oracles: the uniform, fixed and list substrates as
// hand-written Problem types, each with its own split arithmetic. The
// kernels and the kernel-backed Problem forms are checked against these
// copies, so "bit-identical" is measured against an independent
// implementation rather than against the code under test.

// oSynthetic is the stochastic model: every bisection draws α̂ ~ U[lo, hi]
// from the node's seed and returns the heavy child (1−α̂)·w first.
type oSynthetic struct {
	weight float64
	seed   uint64
	depth  int
	lo, hi float64
}

func (s *oSynthetic) Weight() float64 { return s.weight }
func (s *oSynthetic) CanBisect() bool { return true }
func (s *oSynthetic) ID() uint64      { return s.seed }

func (s *oSynthetic) Bisect() (Problem, Problem) {
	rng := xrand.New(s.seed)
	ahat := rng.InRange(s.lo, s.hi)
	heavyW := (1 - ahat) * s.weight
	lightW := s.weight - heavyW
	heavy := &oSynthetic{weight: heavyW, seed: xrand.Mix(s.seed, 1), depth: s.depth + 1, lo: s.lo, hi: s.hi}
	light := &oSynthetic{weight: lightW, seed: xrand.Mix(s.seed, 2), depth: s.depth + 1, lo: s.lo, hi: s.hi}
	return heavy, light
}

// oFixed splits every node exactly into (1−α)·w and α·w; the root's ID is
// 1 and children mix their parent's ID.
type oFixed struct {
	weight float64
	alpha  float64
	id     uint64
}

func (f *oFixed) Weight() float64 { return f.weight }
func (f *oFixed) CanBisect() bool { return true }
func (f *oFixed) ID() uint64      { return f.id }

func (f *oFixed) Bisect() (Problem, Problem) {
	heavy := &oFixed{weight: (1 - f.alpha) * f.weight, alpha: f.alpha, id: xrand.Mix(f.id, 1)}
	light := &oFixed{weight: f.weight - heavy.weight, alpha: f.alpha, id: xrand.Mix(f.id, 2)}
	return heavy, light
}

// oList is the pivot-list model: a pivot rank drawn uniformly from the
// guard window [⌈α·n⌉, ⌊(1−α)·n⌋], heavier half first.
type oList struct {
	length int
	alpha  float64
	seed   uint64
}

func (l *oList) Weight() float64 { return float64(l.length) }
func (l *oList) ID() uint64      { return l.seed }

func (l *oList) CanBisect() bool {
	lo, hi := l.pivotWindow()
	return l.length >= 2 && lo <= hi
}

func (l *oList) pivotWindow() (lo, hi int) {
	n := float64(l.length)
	lo = int(oCeilPos(l.alpha * n))
	hi = int((1 - l.alpha) * n)
	if lo < 1 {
		lo = 1
	}
	if hi > l.length-1 {
		hi = l.length - 1
	}
	return lo, hi
}

func oCeilPos(x float64) float64 {
	i := float64(int(x))
	if i < x {
		return i + 1
	}
	return i
}

func (l *oList) Bisect() (Problem, Problem) {
	lo, hi := l.pivotWindow()
	if l.length < 2 || lo > hi {
		panic("oracle: Bisect on indivisible list")
	}
	rng := xrand.New(l.seed)
	left := lo + rng.Intn(hi-lo+1)
	right := l.length - left
	a := &oList{length: left, alpha: l.alpha, seed: xrand.Mix(l.seed, 1)}
	b := &oList{length: right, alpha: l.alpha, seed: xrand.Mix(l.seed, 2)}
	if a.length >= b.length {
		return a, b
	}
	return b, a
}
