package bounds

import (
	"math"
	"strings"
	"testing"
)

// The paper's stated numeric checkpoints for r_α (end of Section 2).
func TestRHFPaperCheckpoints(t *testing.T) {
	if got := RHF(1.0 / 3.0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("r_{1/3} = %v, want 2", got)
	}
	// "smaller than 3 for α > 1 − 1/⁴√2 ≈ 0.159"
	for _, a := range []float64{0.16, 0.2, 0.25, 0.3} {
		if got := RHF(a); got >= 3 {
			t.Fatalf("r_%v = %v, want < 3", a, got)
		}
	}
	// "smaller than 10 for α ≥ 0.04"
	for _, a := range []float64{0.04, 0.05, 0.1} {
		if got := RHF(a); got >= 10 {
			t.Fatalf("r_%v = %v, want < 10", a, got)
		}
	}
}

func TestRHFAtHalf(t *testing.T) {
	// Perfect bisectors: ⌈1/0.5⌉−2 = 0, r = 2. HF with exact halving can
	// indeed be a factor 2 off for odd N (e.g. N=3 → parts 1/2, 1/4, 1/4).
	if got := RHF(0.5); math.Abs(got-2) > 1e-12 {
		t.Fatalf("r_0.5 = %v, want 2", got)
	}
}

func TestRHFMonotoneGrowthAsAlphaShrinks(t *testing.T) {
	prev := RHF(0.5)
	for a := 0.45; a > 0.01; a -= 0.001 {
		cur := RHF(a)
		// The ceiling makes r_α piecewise; allow tiny local dips but the
		// trend from α=1/2 to α→0 must be strongly increasing overall.
		_ = cur
		prev = math.Max(prev, cur)
	}
	if prev <= RHF(0.5) {
		t.Fatal("r_α did not grow as α shrinks")
	}
	if RHF(0.01) < 30 {
		t.Fatalf("r_0.01 = %v suspiciously small", RHF(0.01))
	}
}

func TestBABoundRelations(t *testing.T) {
	for _, a := range []float64{0.05, 0.1, 0.2, 1.0 / 3.0, 0.5} {
		hf := RHF(a)
		ba := BA(a, 1<<20)
		if ba <= hf {
			t.Fatalf("α=%v: BA bound %v not worse than HF bound %v", a, ba, hf)
		}
	}
}

func TestBASmallN(t *testing.T) {
	// N = 1: ratio bound is exactly 1 (no bisection happens).
	if got := BASmallN(0.3, 1); got != 1 {
		t.Fatalf("BASmallN(0.3, 1) = %v", got)
	}
	// N = 2 with α: max child is (1−α)w, ratio 2(1−α).
	if got := BASmallN(0.3, 2); math.Abs(got-2*0.7) > 1e-12 {
		t.Fatalf("BASmallN(0.3, 2) = %v, want 1.4", got)
	}
	// BA dispatches to the small-N bound below 1/α.
	if got, want := BA(0.3, 3), BASmallN(0.3, 3); got != want {
		t.Fatalf("BA small-N dispatch: %v != %v", got, want)
	}
}

func TestBAHFKappaCheckpoint(t *testing.T) {
	// κ ≥ 1/ln(1+ε) must bring BA-HF within (1+ε) of HF's guarantee.
	for _, eps := range []float64{0.5, 0.1, 0.01} {
		kappa := KappaFor(eps)
		for _, a := range []float64{0.05, 0.2, 0.4} {
			if got, limit := BAHF(a, kappa), (1+eps)*RHF(a); got > limit+1e-9 {
				t.Fatalf("ε=%v α=%v: BA-HF bound %v exceeds (1+ε)·r = %v", eps, a, got, limit)
			}
		}
	}
}

func TestBAHFMonotoneInKappa(t *testing.T) {
	for _, a := range []float64{0.1, 0.3} {
		if !(BAHF(a, 1) > BAHF(a, 2) && BAHF(a, 2) > BAHF(a, 3)) {
			t.Fatalf("BA-HF bound not decreasing in κ at α=%v", a)
		}
		if BAHF(a, 1e6) > RHF(a)*1.001 {
			t.Fatalf("BA-HF bound does not approach r_α for huge κ at α=%v", a)
		}
	}
}

func TestHFThreshold(t *testing.T) {
	if got, want := HFThreshold(100, 1.0/3.0, 10), 100.0*2/10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
}

func TestPHFPhase1Depth(t *testing.T) {
	if got := PHFPhase1Depth(0.3, 1); got != 0 {
		t.Fatalf("depth for N=1 should be 0, got %d", got)
	}
	d1024 := PHFPhase1Depth(0.3, 1024)
	d32 := PHFPhase1Depth(0.3, 32)
	if d1024 <= d32 {
		t.Fatalf("depth bound not increasing with N: %d vs %d", d32, d1024)
	}
	// O(log N): doubling N adds at most a constant number of levels.
	if diff := PHFPhase1Depth(0.3, 1<<20) - PHFPhase1Depth(0.3, 1<<19); diff > 5 {
		t.Fatalf("phase-1 depth grows too fast: +%d per doubling", diff)
	}
}

func TestPHFPhase2Iterations(t *testing.T) {
	// Independent of N; increasing as α shrinks.
	i1 := PHFPhase2Iterations(0.4)
	i2 := PHFPhase2Iterations(0.1)
	i3 := PHFPhase2Iterations(0.02)
	if !(i1 <= i2 && i2 <= i3) {
		t.Fatalf("iterations not increasing as α shrinks: %d %d %d", i1, i2, i3)
	}
	// The paper's closed form: I ≤ (1/α)·ln(1/α) suffices.
	for _, a := range []float64{0.02, 0.1, 0.3, 0.5} {
		limit := int(math.Ceil(1/a*math.Log(1/a))) + 1
		if got := PHFPhase2Iterations(a); got > limit {
			t.Fatalf("α=%v: %d iterations exceeds paper bound %d", a, got, limit)
		}
	}
}

func TestBADepth(t *testing.T) {
	if BADepth(0.3, 1) != 0 {
		t.Fatal("depth for N=1 should be 0")
	}
	if BADepth(0.3, 1024) < 10 {
		t.Fatal("BA depth bound below log2 N is impossible")
	}
	if diff := BADepth(0.3, 1<<20) - BADepth(0.3, 1<<19); diff > 6 {
		t.Fatalf("BA depth bound grows too fast: +%d per doubling", diff)
	}
}

func TestCollectiveCost(t *testing.T) {
	cases := map[int]int64{-3: 0, 0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 1024: 10, 1025: 11}
	// Around every power of two up to 2^40: ⌈log2(2^k−1)⌉ = k (for k ≥ 2,
	// where 2^k−1 > 2^(k−1)), ⌈log2 2^k⌉ = k, ⌈log2(2^k+1)⌉ = k+1.
	for k := 1; k <= 40; k++ {
		p := 1 << k
		if k >= 2 {
			cases[p-1] = int64(k)
		}
		cases[p] = int64(k)
		cases[p+1] = int64(k + 1)
	}
	for n, want := range cases {
		if got := CollectiveCost(n); got != want {
			t.Fatalf("CollectiveCost(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	for _, a := range []float64{0, -1, 0.51, math.NaN()} {
		if err := ValidateAlpha(a); err == nil {
			t.Fatalf("α=%v accepted", a)
		}
	}
	if err := ValidateAlpha(0.5); err != nil {
		t.Fatal("α=0.5 rejected")
	}
	for _, k := range []float64{0, -2, math.NaN()} {
		if err := ValidateKappa(k); err == nil {
			t.Fatalf("κ=%v accepted", k)
		}
	}
}

func TestPanicsOnProgrammerError(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("RHF(0)", func() { RHF(0) })
	mustPanic("BA(0.3, 0)", func() { BA(0.3, 0) })
	mustPanic("BAHF(0.3, 0)", func() { BAHF(0.3, 0) })
	mustPanic("KappaFor(0)", func() { KappaFor(0) })
	mustPanic("HFThreshold n=0", func() { HFThreshold(1, 0.3, 0) })
	mustPanic("PHFPhase1Depth n=0", func() { PHFPhase1Depth(0.3, 0) })
	mustPanic("BADepth n=0", func() { BADepth(0.3, 0) })
}

// TestGuaranteeErrors pins Guarantee's input checks: it reports an
// invalid α, n or BA-HF κ and an unknown name as errors, and serves
// every covered algorithm on valid input.
func TestGuaranteeErrors(t *testing.T) {
	if _, err := Guarantee("HF", 0, 1, 4); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := Guarantee("HF", 0.2, 1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Guarantee("BA-HF", 0.2, 0, 4); err == nil {
		t.Fatal("κ=0 accepted for BA-HF")
	}
	if _, err := Guarantee("nope", 0.2, 1, 4); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, alg := range []string{"HF", "PHF", "BA", "BA-HF"} {
		b, err := Guarantee(alg, 0.25, 1, 16)
		if err != nil || !(b >= 1) {
			t.Fatalf("%s: bound %v err %v", alg, b, err)
		}
	}
}

// TestGuaranteeNames checks the names Guarantee and Measured accept:
// the four bare names, plus the interface BA-HF's self-description
// "BA-HF(κ=…)", which resolves to BA-HF at the argument's κ. Names no
// executor emits and executors the theorems do not cover (BA's naive
// split rule) are errors.
func TestGuaranteeNames(t *testing.T) {
	named, err := Guarantee("BA-HF(κ=2.5)", 0.2, 2.5, 16)
	bare, err2 := Guarantee("BA-HF", 0.2, 2.5, 16)
	if err != nil || err2 != nil || named != bare {
		t.Fatalf("self-described BA-HF bound %v (err %v) != bare %v (err %v)", named, err, bare, err2)
	}
	for _, alg := range []string{"HF-scan", "BA-naive-split", "BA-naive", "parallel-BA", "parallel-PHF", "hf", "BA-HF(", "BA-HFX"} {
		if b, err := Guarantee(alg, 0.2, 1, 16); err == nil {
			t.Errorf("Guarantee accepted %q (bound %v)", alg, b)
		}
	}
	for _, alg := range []string{"HF", "PHF", "BA"} {
		if _, err := Measured(alg, 0.2, 16); err != nil {
			t.Errorf("Measured(%q): %v", alg, err)
		}
	}
	for _, alg := range []string{"BA-HF", "BA-HF(κ=1)", "parallel-PHF"} {
		if b, err := Measured(alg, 0.2, 16); err == nil {
			t.Errorf("Measured accepted %q (bound %v)", alg, b)
		}
	}
}

// TestGuaranteeBAHFNotBelowHF pins the κ → ∞ limit: BA-HF's inner phase
// is exactly HF, and e^{(1−α)/κ} ≥ 1 keeps Theorem 8's bound at or
// above r_α bit for bit, so it needs no floor at HF's bound.
func TestGuaranteeBAHFNotBelowHF(t *testing.T) {
	for _, a := range []float64{0.01, 0.1, 0.3, 0.5} {
		hf, _ := Guarantee("HF", a, 0, 1)
		for _, k := range []float64{0.5, 1, 1e9, math.MaxFloat64, math.Inf(1)} {
			if b, err := Guarantee("BA-HF", a, k, 1); err != nil || b < hf {
				t.Fatalf("α=%v κ=%v: BA-HF bound %v (err %v) below r_α %v", a, k, b, err, hf)
			}
		}
		if b, _ := Guarantee("BA-HF", a, math.Inf(1), 1); b != hf {
			t.Fatalf("α=%v: BA-HF bound at κ=∞ is %v, want r_α %v", a, b, hf)
		}
	}
}

// FuzzGuarantee checks that Guarantee and Measured never panic and
// return an error exactly when α ∉ (0, ½], n < 1, κ ≤ 0 (or NaN) for
// BA-HF, or the name is not one they cover.
func FuzzGuarantee(f *testing.F) {
	f.Add("HF", 0.2, 1.0, 16)
	f.Add("PHF", 0.5, 0.0, 1)
	f.Add("BA", 0.01, -1.0, 1<<16)
	f.Add("BA-HF", 1.0/3, 2.5, 7)
	f.Add("BA-HF(κ=2.5)", 0.25, 2.5, 3)
	f.Add("BA-HF", 0.2, 0.0, 4)
	f.Add("BA-naive", 0.2, 1.0, 4)
	f.Add("HF", 5e-324, 1.0, -3)
	f.Add("BA", 0.6, math.NaN(), 0)
	f.Fuzz(func(t *testing.T, alg string, alpha, kappa float64, n int) {
		badInput := !(alpha > 0 && alpha <= 0.5) || n < 1
		bahf := alg == "BA-HF" || strings.HasPrefix(alg, "BA-HF(κ=") && strings.HasSuffix(alg, ")")
		known := alg == "HF" || alg == "PHF" || alg == "BA" || bahf
		g, err := Guarantee(alg, alpha, kappa, n)
		if wantErr := badInput || !known || bahf && !(kappa > 0); (err != nil) != wantErr {
			t.Fatalf("Guarantee(%q, %v, %v, %d) = %v, %v; want error %v", alg, alpha, kappa, n, g, err, wantErr)
		}
		if err == nil && !(g >= 1) {
			t.Fatalf("Guarantee(%q, %v, %v, %d) = %v, below the trivial floor 1", alg, alpha, kappa, n, g)
		}
		m, err := Measured(alg, alpha, n)
		if wantErr := badInput || !(alg == "HF" || alg == "PHF" || alg == "BA"); (err != nil) != wantErr {
			t.Fatalf("Measured(%q, %v, %d) = %v, %v; want error %v", alg, alpha, n, m, err, wantErr)
		}
	})
}
