package bisect

import (
	"math"
	"testing"
)

// sanitizeKernelInputs folds raw fuzz floats into the valid parameter
// space, mirroring the convention of internal/core's sanitizeInterval:
// rather than rejecting wild inputs we map them into range, so the
// fuzzer's entire input space exercises real bisections.
func sanitizeKernelInputs(w, a, b float64) (weight, lo, hi float64) {
	fold := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.25
		}
		x = math.Abs(x)
		x = x - math.Floor(x/0.5)*0.5 // fold into [0, 0.5)
		if x < 1e-3 {
			x = 1e-3
		}
		return x
	}
	lo, hi = fold(a), fold(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		w = 1
	}
	w = math.Abs(w)
	if !(w > 1e-6) {
		w = 1e-6
	}
	if w > 1e12 {
		w = 1e12
	}
	return w, lo, hi
}

// FuzzKernels throws arbitrary parameters at all three flat kernels and
// checks the contract every Kernel implementation promises: exact parity
// with the frozen oracle, for the kernel and for its Problem form
// (bit-identical weights and IDs), heavy child first, weight conservation, depth bookkeeping,
// the per-split α-band, and determinism.
func FuzzKernels(f *testing.F) {
	f.Add(uint64(1), 100.0, 0.1, 0.5, uint32(64))
	f.Add(uint64(42), 1.0, 0.01, 0.01, uint32(2))
	f.Add(uint64(7), 1e9, 0.3, 0.49, uint32(100000))
	f.Add(uint64(0), 1e-6, 0.001, 0.25, uint32(3))
	f.Fuzz(func(t *testing.T, seed uint64, wRaw, aRaw, bRaw float64, elemsRaw uint32) {
		w, lo, hi := sanitizeKernelInputs(wRaw, aRaw, bRaw)

		// Synthetic: kernel and Problem form vs the oracle, band
		// [lo·w, hi·w] on the light child.
		oh, ol := (&oSynthetic{weight: w, seed: seed, lo: lo, hi: hi}).Bisect()
		sh, sl := MustSynthetic(w, lo, hi, seed).Bisect()
		kh, kl := SyntheticKernel{Lo: lo, Hi: hi}.Split(SyntheticFlatRoot(w, seed))
		checkSplitParity(t, "synthetic", oh, ol, kh, kl)
		checkProblemParity(t, "synthetic", oh, ol, sh, sl)
		checkSplit(t, "synthetic", w, kh, kl)
		slack := 1e-9 * w
		if kl.Weight < lo*w-slack || kl.Weight > hi*w+slack {
			t.Fatalf("synthetic light child %v outside [%v, %v]", kl.Weight, lo*w, hi*w)
		}

		// Fixed: exact (1−α)/α split.
		oh, ol = (&oFixed{weight: w, alpha: hi, id: 1}).Bisect()
		fh, fl := MustFixed(w, hi).Bisect()
		gh, gl := FixedKernel{Alpha: hi}.Split(FixedFlatRoot(w))
		checkSplitParity(t, "fixed", oh, ol, gh, gl)
		checkProblemParity(t, "fixed", oh, ol, fh, fl)
		checkSplit(t, "fixed", w, gh, gl)
		if math.Abs(gl.Weight-hi*w) > slack {
			t.Fatalf("fixed light child %v, want %v", gl.Weight, hi*w)
		}

		// List: integer pivot inside the guard window. The list guard must
		// stay ≤ 1/3 for the window to be non-empty on every length ≥ 2.
		elems := int(elemsRaw%100000) + 2
		la := lo
		if la > 1.0/3 {
			la = 1.0 / 3
		}
		op := &oList{length: elems, alpha: la, seed: seed}
		lp := MustList(elems, la, seed)
		root := ListFlatRoot(elems, la, seed)
		if root.Leaf != !op.CanBisect() || lp.CanBisect() != op.CanBisect() {
			t.Fatalf("list leaf mismatch: flat %v, problem CanBisect %v, oracle CanBisect %v",
				root.Leaf, lp.CanBisect(), op.CanBisect())
		}
		if !root.Leaf {
			oh, ol := op.Bisect()
			lh, ll := lp.Bisect()
			mh, ml := ListKernel{Alpha: la}.Split(root)
			checkSplitParity(t, "list", oh, ol, mh, ml)
			checkProblemParity(t, "list", oh, ol, lh, ll)
			checkSplit(t, "list", float64(elems), mh, ml)
			if mh.Weight != math.Trunc(mh.Weight) || ml.Weight != math.Trunc(ml.Weight) {
				t.Fatalf("list split produced non-integer lengths %v/%v", mh.Weight, ml.Weight)
			}
			if ml.Weight < 1 {
				t.Fatalf("list light child empty: %v", ml.Weight)
			}
		}

		// Determinism: the same node splits the same way every time.
		kh2, kl2 := SyntheticKernel{Lo: lo, Hi: hi}.Split(SyntheticFlatRoot(w, seed))
		if kh2 != kh || kl2 != kl {
			t.Fatalf("synthetic split not deterministic: %+v/%+v vs %+v/%+v", kh, kl, kh2, kl2)
		}
	})
}

// checkSplitParity asserts bit-identical weights and equal IDs between an
// oracle bisection and the corresponding Kernel split.
func checkSplitParity(t *testing.T, kind string, oh, ol Problem, kh, kl FlatNode) {
	t.Helper()
	if oh.Weight() != kh.Weight || ol.Weight() != kl.Weight {
		t.Fatalf("%s weight parity broken: oracle %v/%v, kernel %v/%v",
			kind, oh.Weight(), ol.Weight(), kh.Weight, kl.Weight)
	}
	if oh.ID() != kh.ID || ol.ID() != kl.ID {
		t.Fatalf("%s ID parity broken: oracle %d/%d, kernel %d/%d",
			kind, oh.ID(), ol.ID(), kh.ID, kl.ID)
	}
}

// checkProblemParity asserts bit-identical weights and equal IDs between
// an oracle bisection and the production Problem form's.
func checkProblemParity(t *testing.T, kind string, oh, ol, ph, pl Problem) {
	t.Helper()
	if ph.Weight() != oh.Weight() || pl.Weight() != ol.Weight() || ph.ID() != oh.ID() || pl.ID() != ol.ID() {
		t.Fatalf("%s Problem parity broken: oracle %v/%v (ids %d/%d), problem %v/%v (ids %d/%d)",
			kind, oh.Weight(), ol.Weight(), oh.ID(), ol.ID(), ph.Weight(), pl.Weight(), ph.ID(), pl.ID())
	}
}

// checkSplit asserts the structural Kernel contract on one split:
// conservation, heavy-first ordering, distinct IDs, depth bookkeeping.
func checkSplit(t *testing.T, kind string, w float64, h, l FlatNode) {
	t.Helper()
	if math.Abs((h.Weight+l.Weight)-w) > 1e-9*w {
		t.Fatalf("%s split does not conserve weight: %v + %v != %v", kind, h.Weight, l.Weight, w)
	}
	if h.Weight < l.Weight {
		t.Fatalf("%s heavy child lighter than light child: %v < %v", kind, h.Weight, l.Weight)
	}
	if !(h.Weight > 0) || !(l.Weight > 0) {
		t.Fatalf("%s split produced non-positive child: %v/%v", kind, h.Weight, l.Weight)
	}
	if h.ID == l.ID {
		t.Fatalf("%s children share ID %d", kind, h.ID)
	}
	if h.Depth != 1 || l.Depth != 1 {
		t.Fatalf("%s children depth %d/%d, want 1", kind, h.Depth, l.Depth)
	}
}
