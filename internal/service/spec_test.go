package service

import (
	"strings"
	"testing"
)

// TestAppendKeyCanonicalisation pins the canonical key against the
// properties the cache relies on: algorithm case/space insensitivity,
// κ=0 ≡ κ=1 once normalized, and deadline exclusion.
func TestAppendKeyCanonicalisation(t *testing.T) {
	base := BalanceRequest{
		Spec:      ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: 9},
		N:         64,
		Algorithm: "ba-hf",
		Alpha:     0.1,
	}
	a := base
	b := base
	b.Algorithm = "  BA-HF "
	b.Kappa = 1
	b.DeadlineMS = 500
	a.normalize() // normalize applies the κ default
	b.normalize()
	if a.cacheKey() != b.cacheKey() {
		t.Fatalf("equivalent requests canonicalise differently:\n%q\n%q", a.cacheKey(), b.cacheKey())
	}
	c := base
	c.Kappa = 2
	c.normalize()
	if a.cacheKey() == c.cacheKey() {
		t.Fatal("different κ collapsed to one key")
	}
	if !strings.Contains(a.cacheKey(), "alg=BA-HF") {
		t.Fatalf("algorithm not upper-cased in key: %q", a.cacheKey())
	}
}

// TestAppendKeyAllocationFree is the spec-path regression test promised
// in DESIGN.md §10: canonicalising into a reused buffer is allocation
// free, and the signature costs at most its one output string.
func TestAppendKeyAllocationFree(t *testing.T) {
	reqs := []BalanceRequest{
		{Spec: ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: 9}, N: 64, Algorithm: "HF"},
		{Spec: ProblemSpec{Family: "list", Elems: 1000, SplitAlpha: 0.2, Seed: 1}, N: 128, Algorithm: "ba-hf", Alpha: 0.2, Kappa: 2},
		{Spec: ProblemSpec{Family: "quadrature", Split: "median", Seed: 3}, N: 16, Algorithm: "PHF", Alpha: 0.25},
	}
	buf := make([]byte, 0, 256)
	for i := range reqs {
		req := &reqs[i]
		if a := testing.AllocsPerRun(100, func() { buf = req.appendKey(buf[:0]) }); a != 0 {
			t.Errorf("%s: appendKey allocates %v/op, want 0", req.Spec.Family, a)
		}
	}
	key := reqs[0].appendKey(nil)
	if a := testing.AllocsPerRun(100, func() { _ = signatureBytes(key) }); a > 1 {
		t.Errorf("signatureBytes allocates %v/op, want ≤ 1", a)
	}
}

// TestSignatureFormsAgree pins the string and byte signature forms to
// each other (the handler uses whichever avoids a conversion).
func TestSignatureFormsAgree(t *testing.T) {
	req := BalanceRequest{Spec: ProblemSpec{Family: "fixed", Weight: 1, SplitAlpha: 0.4}, N: 8, Algorithm: "BA"}
	key := req.cacheKey()
	if signature(key) != signatureBytes([]byte(key)) {
		t.Fatal("signature and signatureBytes disagree")
	}
	if signature(key) == "" {
		t.Fatal("empty signature")
	}
}

// TestRealFamilySpecs pins the seed-only real-instance families
// (DESIGN.md §16): they validate, their keys are seed-discriminated,
// and they materialise through the facade.
func TestRealFamilySpecs(t *testing.T) {
	for _, fam := range []string{"graph", "spatial"} {
		a := BalanceRequest{Spec: ProblemSpec{Family: fam, Seed: 1}, N: 4, Algorithm: "HF"}
		a.normalize()
		if err := a.validate(); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		b := a
		b.Spec.Seed = 2
		if a.cacheKey() == b.cacheKey() {
			t.Fatalf("%s: different seeds collapsed to one key: %q", fam, a.cacheKey())
		}
		p, err := a.buildProblem()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !(p.Weight() > 0) {
			t.Fatalf("%s: root weight %v", fam, p.Weight())
		}
	}
}
