package bisectlb_test

import (
	"fmt"
	"log"
	"testing"

	"bisectlb"
)

func TestBalanceDispatch(t *testing.T) {
	mk := func() bisectlb.Problem {
		p, err := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, 42)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	algs := []bisectlb.Config{
		{Algorithm: bisectlb.HFAlgorithm},
		{Algorithm: bisectlb.BAAlgorithm},
		{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1},
		{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1, Kappa: 2},
		{Algorithm: bisectlb.PHFAlgorithm, Alpha: 0.1},
	}
	for _, cfg := range algs {
		res, err := bisectlb.Balance(mk(), 32, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		if len(res.Parts) != 32 {
			t.Fatalf("%v: %d parts", cfg.Algorithm, len(res.Parts))
		}
		if err := res.CheckPartition(1e-9); err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
	}
	if _, err := bisectlb.Balance(mk(), 32, bisectlb.Config{Algorithm: bisectlb.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[bisectlb.Algorithm]string{
		bisectlb.HFAlgorithm:   "HF",
		bisectlb.BAAlgorithm:   "BA",
		bisectlb.BAHFAlgorithm: "BA-HF",
		bisectlb.PHFAlgorithm:  "PHF",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d: name %q, want %q", int(a), a.String(), want)
		}
	}
	if bisectlb.Algorithm(42).String() == "" {
		t.Fatal("unknown algorithm has empty name")
	}
}

func TestGuaranteesExposed(t *testing.T) {
	g, err := bisectlb.GuaranteeHF(1.0 / 3.0)
	if err != nil || g < 1.99 || g > 2.01 {
		t.Fatalf("GuaranteeHF(1/3) = %v, %v", g, err)
	}
	if _, err := bisectlb.GuaranteeHF(0); err == nil {
		t.Fatal("α=0 accepted")
	}
	if _, err := bisectlb.GuaranteeBA(0.2, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	gba, err := bisectlb.GuaranteeBA(0.2, 1024)
	if err != nil || gba <= g {
		t.Fatalf("GuaranteeBA = %v, %v", gba, err)
	}
	if _, err := bisectlb.GuaranteeBAHF(0.2, 0); err == nil {
		t.Fatal("κ=0 accepted")
	}
	k, err := bisectlb.KappaFor(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := bisectlb.GuaranteeBAHF(0.2, k)
	if err != nil {
		t.Fatal(err)
	}
	hf, _ := bisectlb.GuaranteeHF(0.2)
	if hyb > 1.1*hf+1e-9 {
		t.Fatalf("KappaFor(0.1) κ=%v leaves BA-HF bound %v above 1.1×%v", k, hyb, hf)
	}
	if _, err := bisectlb.KappaFor(0); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestPublicConstructorsAndProbe(t *testing.T) {
	if _, err := bisectlb.NewSyntheticProblem(0, 0.1, 0.5, 1); err == nil {
		t.Fatal("invalid synthetic accepted")
	}
	if _, err := bisectlb.NewFixedProblem(1, 0.7); err == nil {
		t.Fatal("invalid fixed accepted")
	}
	if _, err := bisectlb.NewListProblem(0, 0.2, 1); err == nil {
		t.Fatal("invalid list accepted")
	}
	if _, err := bisectlb.NewFEMTreeProblem(bisectlb.FEMTreeConfig{}); err == nil {
		t.Fatal("invalid FE-tree config accepted")
	}
	if _, err := bisectlb.NewSearchTreeProblem(bisectlb.SearchTreeConfig{}); err == nil {
		t.Fatal("invalid search-tree config accepted")
	}
	for _, p := range []bisectlb.Problem{
		bisectlb.DefaultFEMTreeProblem(1),
		bisectlb.DefaultSearchTreeProblem(1),
	} {
		a := bisectlb.ProbeAlpha(p, 64)
		if a <= 0 || a > 0.5 {
			t.Fatalf("ProbeAlpha = %v", a)
		}
	}
	if bisectlb.ProbeAlpha(nil, 64) != 0.5 {
		t.Fatal("nil probe should return 0.5")
	}
	q, err := bisectlb.NewQuadratureProblem(bisectlb.QuadratureMidpointSplit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.CanBisect() {
		t.Fatal("root quadrature box indivisible")
	}
}

func TestCheckAlphaExposed(t *testing.T) {
	p, err := bisectlb.NewSyntheticProblem(1, 0.3, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v := bisectlb.CheckAlpha(p, 0.3, 6, 1e-9); len(v) != 0 {
		t.Fatalf("valid class flagged: %v", v)
	}
	if v := bisectlb.CheckAlpha(p, 0.49, 8, 1e-9); len(v) == 0 {
		t.Fatal("contract violation not flagged")
	}
}

func TestTheoremThreeThroughPublicAPI(t *testing.T) {
	p1, _ := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, 77)
	p2, _ := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, 77)
	hf, err := bisectlb.HF(p1, 500)
	if err != nil {
		t.Fatal(err)
	}
	phf, err := bisectlb.PHF(p2, 500, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !bisectlb.SamePartition(hf, &phf.Result) {
		t.Fatal("Theorem 3 violated through public API")
	}
}

// Example demonstrates the minimal workflow: construct a problem, balance
// it, inspect the ratio against the worst-case guarantee.
func Example() {
	problem, err := bisectlb.NewFixedProblem(1.0, 1.0/3.0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := bisectlb.HF(problem, 3)
	if err != nil {
		log.Fatal(err)
	}
	guarantee, err := bisectlb.GuaranteeHF(1.0 / 3.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parts=%d ratio=%.3f guarantee=%.0f\n", len(res.Parts), res.Ratio, guarantee)
	// Output: parts=3 ratio=1.333 guarantee=2
}
