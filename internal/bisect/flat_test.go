package bisect

import (
	"testing"
)

// walkParity bisects the frozen oracle, the production Problem form and
// the flat node side by side down to depth levels and fails on the first
// divergence in weight, ID, divisibility or depth.
func walkParity(t *testing.T, want, p Problem, n FlatNode, k Kernel, depth int) {
	t.Helper()
	var walk func(want, p Problem, n FlatNode, level int32)
	walk = func(want, p Problem, n FlatNode, level int32) {
		if p.Weight() != want.Weight() || n.Weight != want.Weight() {
			t.Fatalf("weight diverged at id %d: oracle %v, problem %v, flat %v", want.ID(), want.Weight(), p.Weight(), n.Weight)
		}
		if p.ID() != want.ID() || n.ID != want.ID() {
			t.Fatalf("ID diverged: oracle %d, problem %d, flat %d", want.ID(), p.ID(), n.ID)
		}
		if p.CanBisect() != want.CanBisect() || n.Leaf == want.CanBisect() {
			t.Fatalf("divisibility diverged at id %d: oracle CanBisect=%v, problem CanBisect=%v, flat Leaf=%v",
				want.ID(), want.CanBisect(), p.CanBisect(), n.Leaf)
		}
		if n.Depth != level {
			t.Fatalf("flat depth %d at level %d (id %d)", n.Depth, level, n.ID)
		}
		if level == int32(depth) || !want.CanBisect() {
			return
		}
		w1, w2 := want.Bisect()
		c1, c2 := p.Bisect()
		f1, f2 := k.Split(n)
		walk(w1, c1, f1, level+1)
		walk(w2, c2, f2, level+1)
	}
	walk(want, p, n, 0)
}

func TestSyntheticKernelParity(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1999} {
		want := &oSynthetic{weight: 3.5, seed: seed, lo: 0.1, hi: 0.5}
		p := MustSynthetic(3.5, 0.1, 0.5, seed)
		walkParity(t, want, p, SyntheticFlatRoot(3.5, seed), SyntheticKernel{Lo: 0.1, Hi: 0.5}, 8)
	}
}

func TestFixedKernelParity(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.3, 0.5} {
		want := &oFixed{weight: 2, alpha: alpha, id: 1}
		p := MustFixed(2, alpha)
		walkParity(t, want, p, FixedFlatRoot(2), FixedKernel{Alpha: alpha}, 8)
	}
}

func TestListKernelParity(t *testing.T) {
	for _, elems := range []int{1, 2, 3, 17, 1000} {
		want := &oList{length: elems, alpha: 0.2, seed: 99}
		p := MustList(elems, 0.2, 99)
		walkParity(t, want, p, ListFlatRoot(elems, 0.2, 99), ListKernel{Alpha: 0.2}, 12)
	}
}

func TestKernelSplitsAllocationFree(t *testing.T) {
	sk := SyntheticKernel{Lo: 0.1, Hi: 0.5}
	fk := FixedKernel{Alpha: 0.3}
	lk := ListKernel{Alpha: 0.2}
	sn := SyntheticFlatRoot(1, 7)
	fn := FixedFlatRoot(1)
	ln := ListFlatRoot(4096, 0.2, 7)
	var sink FlatNode
	if a := testing.AllocsPerRun(100, func() { sink, _ = sk.Split(sn) }); a != 0 {
		t.Errorf("SyntheticKernel.Split allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink, _ = fk.Split(fn) }); a != 0 {
		t.Errorf("FixedKernel.Split allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink, _ = lk.Split(ln) }); a != 0 {
		t.Errorf("ListKernel.Split allocates %v/op, want 0", a)
	}
	_ = sink
}

// halfLazy and halfLazyPtr are lazy kernels, by value and by pointer,
// that split like SyntheticKernel and admit only nodes above weight ½.
type halfLazy struct{ SyntheticKernel }

func (halfLazy) CanSplit(n FlatNode) bool { return n.Weight > 0.5 }

type halfLazyPtr struct{ SyntheticKernel }

func (*halfLazyPtr) CanSplit(n FlatNode) bool { return n.Weight > 0.5 }

// TestNodeAsksLazyKernel checks that the kernel-backed Problem form asks
// a LazyKernel's CanSplit, and that CanBisect allocates nothing for a
// kernel that is not lazy.
func TestNodeAsksLazyKernel(t *testing.T) {
	k := SyntheticKernel{Lo: 0.1, Hi: 0.5}
	for _, w := range []float64{0.4, 0.6} {
		byValue := &Node[halfLazy]{node: SyntheticFlatRoot(w, 1), kernel: halfLazy{k}}
		byPtr := &Node[*halfLazyPtr]{node: SyntheticFlatRoot(w, 1), kernel: &halfLazyPtr{k}}
		if want := w > 0.5; byValue.CanBisect() != want || byPtr.CanBisect() != want {
			t.Fatalf("w=%v: CanBisect by value %v, by pointer %v, want %v", w, byValue.CanBisect(), byPtr.CanBisect(), want)
		}
	}
	s, l := MustSynthetic(1, 0.1, 0.5, 7), MustList(100, 0.2, 7)
	var sink bool
	if a := testing.AllocsPerRun(100, func() { sink = s.CanBisect() && l.CanBisect() }); a != 0 {
		t.Errorf("CanBisect allocates %v/op, want 0", a)
	}
	_ = sink
}

func TestValidateFlatRoot(t *testing.T) {
	if err := ValidateFlatRoot(FlatNode{Weight: 1}); err != nil {
		t.Fatalf("valid root rejected: %v", err)
	}
	for _, w := range []float64{0, -1, nan(), inf()} {
		if err := ValidateFlatRoot(FlatNode{Weight: w}); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }
