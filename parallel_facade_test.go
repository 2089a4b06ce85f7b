package bisectlb_test

import (
	"errors"
	"math"
	"testing"

	"bisectlb"
)

// TestParallelBalanceIntoMatchesBalanceInto checks the multicore facade
// end to end: for every supported algorithm and a spread of worker
// counts, a planner with workers, reached through the deprecated
// ParallelBalanceInto forward, must write the identical plan a
// one-worker planner writes — same parts, same order, same accounting.
// N = 2^15 is the smallest plan that fans out.
func TestParallelBalanceIntoMatchesBalanceInto(t *testing.T) {
	root, kernel, err := bisectlb.NewSyntheticFlat(1, 0.1, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	pl := bisectlb.NewPlanner(64)
	var sp, cp bisectlb.Plan
	for _, w := range []int{1, 2, 4, 9} {
		pp := bisectlb.NewParallelPlanner(64, bisectlb.ParallelOptions{Workers: w})
		for _, alg := range []bisectlb.Algorithm{
			bisectlb.HFAlgorithm, bisectlb.BAAlgorithm, bisectlb.BAHFAlgorithm, bisectlb.PHFAlgorithm,
		} {
			cfg := bisectlb.Config{Algorithm: alg, Alpha: 0.1}
			for _, n := range []int{1, 64, 1024, 1 << 15} {
				if err := bisectlb.BalanceInto(&sp, pl, kernel, root, n, cfg); err != nil {
					t.Fatalf("%s w=%d n=%d sequential: %v", alg, w, n, err)
				}
				if err := bisectlb.ParallelBalanceInto(&cp, pp, kernel, root, n, cfg); err != nil {
					t.Fatalf("%s w=%d n=%d parallel: %v", alg, w, n, err)
				}
				fans := w > 1 && n == 1<<15 && (alg == bisectlb.BAAlgorithm || alg == bisectlb.BAHFAlgorithm)
				if pp.FannedOut() != fans {
					t.Fatalf("%s w=%d n=%d: fanned out %v, want %v", alg, w, n, pp.FannedOut(), fans)
				}
				if sp.Algorithm != cp.Algorithm || sp.Max != cp.Max || sp.Ratio != cp.Ratio ||
					sp.Bisections != cp.Bisections || sp.MaxDepth != cp.MaxDepth {
					t.Fatalf("%s w=%d n=%d: summaries diverged: seq %+v par %+v", alg, w, n, sp, cp)
				}
				if len(sp.Parts) != len(cp.Parts) {
					t.Fatalf("%s w=%d n=%d: %d sequential parts, %d parallel parts",
						alg, w, n, len(sp.Parts), len(cp.Parts))
				}
				for i := range sp.Parts {
					if sp.Parts[i] != cp.Parts[i] {
						t.Fatalf("%s w=%d n=%d part %d diverged: seq %+v par %+v",
							alg, w, n, i, sp.Parts[i], cp.Parts[i])
					}
				}
			}
		}
	}
}

// TestParallelBalanceIntoTypedErrors mirrors BalanceInto's error
// contract on the parallel entry point.
func TestParallelBalanceIntoTypedErrors(t *testing.T) {
	root, kernel, err := bisectlb.NewFixedFlat(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pp := bisectlb.NewParallelPlanner(4, bisectlb.ParallelOptions{Workers: 2})
	var plan bisectlb.Plan
	if err := bisectlb.ParallelBalanceInto(nil, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.HFAlgorithm}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if err := bisectlb.ParallelBalanceInto(&plan, nil, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.HFAlgorithm}); err == nil {
		t.Fatal("nil planner accepted")
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, nil, root, 4,
		bisectlb.Config{Algorithm: bisectlb.HFAlgorithm}); !errors.Is(err, bisectlb.ErrNilProblem) {
		t.Fatalf("nil kernel: got %v, want ErrNilProblem", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 0,
		bisectlb.Config{Algorithm: bisectlb.HFAlgorithm}); !errors.Is(err, bisectlb.ErrBadN) {
		t.Fatalf("n=0: got %v, want ErrBadN", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm}); !errors.Is(err, bisectlb.ErrAlphaRequired) {
		t.Fatalf("missing α: got %v, want ErrAlphaRequired", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.7}); !errors.Is(err, bisectlb.ErrBadAlpha) {
		t.Fatalf("α=0.7: got %v, want ErrBadAlpha", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1, Kappa: -1}); !errors.Is(err, bisectlb.ErrBadKappa) {
		t.Fatalf("κ=-1: got %v, want ErrBadKappa", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.BAHFAlgorithm, Alpha: 0.1, Kappa: math.NaN()}); !errors.Is(err, bisectlb.ErrBadKappa) {
		t.Fatalf("κ=NaN: got %v, want ErrBadKappa", err)
	}
	if err := bisectlb.ParallelBalanceInto(&plan, pp, kernel, root, 4,
		bisectlb.Config{Algorithm: bisectlb.Algorithm(99)}); !errors.Is(err, bisectlb.ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm: got %v, want ErrUnknownAlgorithm", err)
	}
}

// TestBalanceIntoNilArguments pins the sequential facade's guard the
// parallel one mirrors.
func TestBalanceIntoNilArguments(t *testing.T) {
	root, kernel, err := bisectlb.NewFixedFlat(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := bisectlb.BalanceInto(nil, bisectlb.NewPlanner(4), kernel, root, 4, bisectlb.Config{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	var plan bisectlb.Plan
	if err := bisectlb.BalanceInto(&plan, nil, kernel, root, 4, bisectlb.Config{}); err == nil {
		t.Fatal("nil planner accepted")
	}
}
