package bisectlb_test

import (
	"errors"
	"math"
	"testing"

	"bisectlb"
)

// TestBalanceIntoMatchesBalance checks the public flat facade end to
// end: same partition as Balance for every supported algorithm, zero
// steady-state allocations, and the same typed errors for bad input.
func TestBalanceIntoMatchesBalance(t *testing.T) {
	root, kernel, err := bisectlb.NewSyntheticFlat(1, 0.1, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bisectlb.NewSyntheticProblem(1, 0.1, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(64)
	var plan bisectlb.Plan
	for _, alg := range []bisectlb.Algorithm{
		bisectlb.HFAlgorithm, bisectlb.BAAlgorithm, bisectlb.BAHFAlgorithm, bisectlb.PHFAlgorithm,
	} {
		cfg := bisectlb.Config{Algorithm: alg, Alpha: 0.1}
		if err := bisectlb.BalanceInto(&plan, pl, kernel, root, 64, cfg); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		res, err := bisectlb.Balance(p, 64, cfg)
		if err != nil {
			t.Fatalf("%s interface: %v", alg, err)
		}
		if len(plan.Parts) != len(res.Parts) {
			t.Fatalf("%s: %d flat parts, %d interface parts", alg, len(plan.Parts), len(res.Parts))
		}
		for i := range plan.Parts {
			if plan.Parts[i].Node.ID != res.Parts[i].Problem.ID() ||
				plan.Parts[i].Node.Weight != res.Parts[i].Problem.Weight() ||
				int(plan.Parts[i].Procs) != res.Parts[i].Procs {
				t.Fatalf("%s part %d diverged: flat %+v, interface {id %d w %g procs %d}",
					alg, i, plan.Parts[i], res.Parts[i].Problem.ID(),
					res.Parts[i].Problem.Weight(), res.Parts[i].Procs)
			}
		}
	}
}

func TestBalanceIntoSteadyStateAllocationFree(t *testing.T) {
	root, kernel, err := bisectlb.NewSyntheticFlat(1, 0.1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(256)
	var plan bisectlb.Plan
	cfg := bisectlb.Config{Algorithm: bisectlb.HFAlgorithm}
	if err := bisectlb.BalanceInto(&plan, pl, kernel, root, 256, cfg); err != nil {
		t.Fatal(err) // warm the buffers
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := bisectlb.BalanceInto(&plan, pl, kernel, root, 256, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state BalanceInto allocates %v/op, want 0", allocs)
	}
}

func TestBalanceIntoTypedErrors(t *testing.T) {
	root, kernel, err := bisectlb.NewFixedFlat(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(4)
	var plan bisectlb.Plan
	cases := []struct {
		name string
		n    int
		cfg  bisectlb.Config
		want error
	}{
		{"bad n", 0, bisectlb.Config{}, bisectlb.ErrBadN},
		{"alpha required", 4, bisectlb.Config{Algorithm: bisectlb.PHFAlgorithm}, bisectlb.ErrAlphaRequired},
		{"bad alpha", 4, bisectlb.Config{Algorithm: bisectlb.PHFAlgorithm, Alpha: 0.9}, bisectlb.ErrBadAlpha},
		{"bad kappa", 4, bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.3, Kappa: -1}, bisectlb.ErrBadKappa},
		{"NaN kappa", 4, bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.3, Kappa: math.NaN()}, bisectlb.ErrBadKappa},
		{"unknown", 4, bisectlb.Config{Algorithm: bisectlb.Algorithm(99)}, bisectlb.ErrUnknownAlgorithm},
	}
	for _, tc := range cases {
		if err := bisectlb.BalanceInto(&plan, pl, kernel, root, tc.n, tc.cfg); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := bisectlb.BalanceInto(&plan, pl, nil, root, 4, bisectlb.Config{}); !errors.Is(err, bisectlb.ErrNilProblem) {
		t.Fatalf("nil kernel: got %v, want ErrNilProblem", err)
	}
	if _, _, err := bisectlb.NewSyntheticFlat(0, 0.1, 0.5, 1); err == nil {
		t.Fatal("NewSyntheticFlat accepted weight 0")
	}
	if _, _, err := bisectlb.NewFixedFlat(1, 0.7); err == nil {
		t.Fatal("NewFixedFlat accepted α > 1/2")
	}
	if _, _, err := bisectlb.NewListFlat(0, 0.2, 1); err == nil {
		t.Fatal("NewListFlat accepted 0 elements")
	}
}
