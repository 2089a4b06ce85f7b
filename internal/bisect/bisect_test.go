package bisect

import (
	"math"
	"testing"
	"testing/quick"

	"bisectlb/internal/xrand"
)

func TestValidateRoot(t *testing.T) {
	if err := ValidateRoot(nil); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := MustSynthetic(1, 0.1, 0.5, 1)
	if err := ValidateRoot(p); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestSyntheticConstruction(t *testing.T) {
	cases := []struct {
		w, lo, hi float64
		ok        bool
	}{
		{1, 0.1, 0.5, true},
		{1, 0.5, 0.5, true},
		{1, 0.01, 0.01, true},
		{0, 0.1, 0.5, false},
		{-2, 0.1, 0.5, false},
		{1, 0, 0.5, false},
		{1, 0.3, 0.2, false},
		{1, 0.1, 0.6, false},
	}
	for _, c := range cases {
		_, err := NewSynthetic(c.w, c.lo, c.hi, 1)
		if (err == nil) != c.ok {
			t.Errorf("NewSynthetic(%v, %v, %v): err=%v, want ok=%v", c.w, c.lo, c.hi, err, c.ok)
		}
	}
}

func TestSyntheticBisectConserves(t *testing.T) {
	p := MustSynthetic(100, 0.1, 0.5, 7)
	c1, c2 := p.Bisect()
	if math.Abs(c1.Weight()+c2.Weight()-100) > 1e-9 {
		t.Fatalf("weights %v + %v != 100", c1.Weight(), c2.Weight())
	}
	if c1.Weight() < c2.Weight() {
		t.Fatal("heavy child must come first")
	}
}

func TestSyntheticBisectDeterministic(t *testing.T) {
	p := MustSynthetic(100, 0.1, 0.5, 7)
	a1, a2 := p.Bisect()
	b1, b2 := p.Bisect()
	if a1.Weight() != b1.Weight() || a2.Weight() != b2.Weight() {
		t.Fatal("repeated bisection of the same node differs")
	}
	if a1.ID() != b1.ID() || a2.ID() != b2.ID() {
		t.Fatal("repeated bisection produced different IDs")
	}
}

func TestSyntheticDistinctIDs(t *testing.T) {
	p := MustSynthetic(1, 0.1, 0.5, 7)
	seen := map[uint64]bool{p.ID(): true}
	var walk func(q Problem, depth int)
	walk = func(q Problem, depth int) {
		if depth == 0 {
			return
		}
		c1, c2 := q.Bisect()
		for _, c := range []Problem{c1, c2} {
			if seen[c.ID()] {
				t.Fatalf("duplicate ID %d", c.ID())
			}
			seen[c.ID()] = true
			walk(c, depth-1)
		}
	}
	walk(p, 10)
}

func TestSyntheticSatisfiesAlphaBisectorContract(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		lo := rng.InRange(0.01, 0.49)
		hi := rng.InRange(lo, 0.5)
		p := MustSynthetic(1+rng.Float64()*1000, lo, hi, seed)
		return len(Check(p, lo, 8, 1e-9)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	// A synthetic with α̂ up to 0.5, checked against a stricter α=0.4,
	// must eventually violate the child-range condition.
	p := MustSynthetic(1, 0.05, 0.5, 3)
	if v := Check(p, 0.45, 12, 1e-9); len(v) == 0 {
		t.Fatal("Check failed to flag out-of-range children")
	}
	if v := Check(nil, 0.3, 3, 0); len(v) == 0 {
		t.Fatal("Check accepted nil problem")
	}
}

func TestFixedBisect(t *testing.T) {
	p := MustFixed(1, 0.3)
	c1, c2 := p.Bisect()
	if math.Abs(c1.Weight()-0.7) > 1e-12 || math.Abs(c2.Weight()-0.3) > 1e-12 {
		t.Fatalf("fixed split got %v/%v", c1.Weight(), c2.Weight())
	}
	if len(Check(p, 0.3, 10, 1e-9)) != 0 {
		t.Fatal("fixed problem violates its own α")
	}
}

func TestFixedConstruction(t *testing.T) {
	if _, err := NewFixed(1, 0); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := NewFixed(1, 0.6); err == nil {
		t.Fatal("α=0.6 accepted")
	}
	if _, err := NewFixed(0, 0.3); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestFixedIDsUnique(t *testing.T) {
	p := MustFixed(1, 0.25)
	seen := map[uint64]bool{}
	var walk func(q Problem, d int)
	walk = func(q Problem, d int) {
		if seen[q.ID()] {
			t.Fatalf("duplicate fixed ID %d", q.ID())
		}
		seen[q.ID()] = true
		if d == 0 {
			return
		}
		c1, c2 := q.Bisect()
		walk(c1, d-1)
		walk(c2, d-1)
	}
	walk(p, 8)
}

func TestListBisectConservesLength(t *testing.T) {
	p := MustList(1000, 0.2, 5)
	c1, c2 := p.Bisect()
	l1, l2 := c1.(*List).node.S1, c2.(*List).node.S1
	if l1+l2 != 1000 {
		t.Fatalf("lengths %d + %d != 1000", l1, l2)
	}
	if l1 < l2 {
		t.Fatal("heavy half must come first")
	}
}

func TestListGuardRespectsAlpha(t *testing.T) {
	p := MustList(400, 0.25, 9)
	if v := Check(p, 0.25, 6, 1e-9); len(v) != 0 {
		// Integer rounding can place one element across the exact boundary;
		// allow a one-element tolerance before failing.
		for _, viol := range v {
			t.Logf("violation: %v", viol)
		}
		t.Fatal("guarded list violates α-bisector contract")
	}
}

func TestListIndivisible(t *testing.T) {
	p := MustList(1, 0.3, 1)
	if p.CanBisect() {
		t.Fatal("single-element list claims divisibility")
	}
	if !panics(func() { p.Bisect() }) {
		t.Fatal("Bisect on indivisible list should panic")
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

func TestListConstruction(t *testing.T) {
	if _, err := NewList(0, 0.3, 1); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := NewList(10, 0, 1); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := NewList(10, 0.7, 1); err == nil {
		t.Fatal("α=0.7 accepted")
	}
}

func TestHelpers(t *testing.T) {
	a := MustSynthetic(3, 0.1, 0.5, 1)
	b := MustSynthetic(5, 0.1, 0.5, 2)
	ps := []Problem{a, b}
	if MaxWeight(ps) != 5 {
		t.Fatalf("MaxWeight = %v", MaxWeight(ps))
	}
	if TotalWeight(ps) != 8 {
		t.Fatalf("TotalWeight = %v", TotalWeight(ps))
	}
	if MaxWeight(nil) != 0 || TotalWeight(nil) != 0 {
		t.Fatal("empty helpers wrong")
	}
	if got := Ratio(2, 8, 4); got != 1 {
		t.Fatalf("Ratio = %v, want 1", got)
	}
	if !math.IsNaN(Ratio(1, 0, 4)) || !math.IsNaN(Ratio(1, 1, 0)) {
		t.Fatal("degenerate Ratio should be NaN")
	}
}

func TestSyntheticAlphaHatDistribution(t *testing.T) {
	// Empirically verify α̂ ~ U[0.1, 0.5] across many root bisections.
	s := NewSampleish()
	for seed := uint64(0); seed < 2000; seed++ {
		p := MustSynthetic(1, 0.1, 0.5, seed)
		_, c2 := p.Bisect()
		s.add(c2.Weight()) // light fraction = α̂
	}
	mean := s.sum / float64(s.n)
	if math.Abs(mean-0.3) > 0.01 {
		t.Fatalf("α̂ mean %v, want ≈0.3", mean)
	}
	if s.min < 0.1 || s.max > 0.5 {
		t.Fatalf("α̂ outside [0.1, 0.5]: min=%v max=%v", s.min, s.max)
	}
}

// NewSampleish is a minimal accumulator local to this test file, avoiding an
// import cycle with internal/stats (which imports nothing from here, but
// keeping leaf packages dependency-free keeps the build graph clean).
type sampleish struct {
	n        int
	sum      float64
	min, max float64
}

func NewSampleish() *sampleish { return &sampleish{min: math.Inf(1), max: math.Inf(-1)} }

func (s *sampleish) add(v float64) {
	s.n++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// TestFixedDeepChainIDsUnique pins the fix for a real bug found by the
// verify sweep: the original implicit-binary-tree IDs (root 1, children
// 2i and 2i+1) overflow uint64 at bisection depth 63, so a heavy chain
// longer than 63 bisections — which HF produces on the fixed class for
// small α and large N — yielded duplicate part IDs. IDs are now derived
// by mixing, which is depth-unbounded.
func TestFixedDeepChainIDsUnique(t *testing.T) {
	p := Problem(MustFixed(1, 0.05))
	seen := map[uint64]bool{1: false}
	for d := 0; d < 200; d++ {
		heavy, light := p.Bisect()
		for _, c := range []Problem{heavy, light} {
			if _, dup := seen[c.ID()]; dup {
				t.Fatalf("duplicate fixed ID %d at depth %d", c.ID(), d+1)
			}
			seen[c.ID()] = true
		}
		p = heavy
	}
}
