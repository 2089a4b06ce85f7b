package core

import "bisectlb/internal/bisect"

// PHFStats is the phase accounting of one Algorithm PHF run.
type PHFStats struct {
	// Threshold is the weight w(p)·r_α/N separating the two phases.
	Threshold float64
	// Phase1Rounds counts the synchronous bisection rounds of phase one
	// (each round: every subproblem heavier than the threshold is bisected
	// concurrently). It is bounded by bounds.PHFPhase1Depth.
	Phase1Rounds int
	// Phase1Bisections counts the bisections performed in phase one.
	Phase1Bisections int
	// Phase2Iterations counts phase-two iterations (each involving global
	// communication). It is bounded by bounds.PHFPhase2Iterations.
	Phase2Iterations int
	// Phase2Bisections counts the bisections performed in phase two.
	Phase2Bisections int
	// ModelTime is the running time in the paper's cost model: one unit
	// per bisection and per transmission, ⌈log2 N⌉ per global operation.
	ModelTime int64
	// GlobalOps counts global communication operations (reductions,
	// broadcasts, barriers, selections).
	GlobalOps int64
}

// PHFResult augments Result with the phase accounting of Algorithm PHF.
type PHFResult struct {
	Result
	PHFStats
}

// PHF implements Algorithm PHF (paper Figure 2), the parallelisation of HF
// that provably computes the identical partition (Theorem 3). This function
// is the *logical* round-structured execution: it performs the same
// bisections in the same synchronous rounds a parallel machine would and
// accounts model time and global operations, but runs in one goroutine.
// internal/machine replays the identical schedule on the simulated machine
// with explicit processors and messages, and internal/dist runs it over a
// real message-passing cluster.
//
// Phase one repeatedly bisects, in parallel rounds, every subproblem heavier
// than the threshold w(p)·r_α/N — such subproblems are certainly bisected by
// HF. Phase two then performs synchronized iterations: determine the maximum
// weight m among the subproblems, bisect (up to the number of remaining free
// processors) all subproblems with weight ≥ m·(1−α), and repeat until no
// processor is free. Both phases need the class parameter α. PHF runs
// Planner.PHFInto's loop over the problem kernel.
//
// Tie caveat: the identity with HF is exact whenever subproblem weights are
// pairwise distinct, which holds almost surely under the paper's continuous
// stochastic model. With exactly tied weights (e.g. the Fixed adversarial
// class) HF's ID tie-break and PHF's round structure can resolve ties
// differently; PHF's output is then still *a* valid HF output — every PHF
// bisection sequence can be reordered into a heaviest-first sequence under
// some tie order — but not necessarily the one core.HF's deterministic
// tie-break produces.
func PHF(p bisect.Problem, n int, alpha float64, opt Options) (*PHFResult, error) {
	var st PHFStats
	res, err := planProblem(p, n, opt, "PHF", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode) error {
		return pl.phfInto(plan, k, root, n, alpha, &st)
	})
	if err != nil {
		return nil, err
	}
	return &PHFResult{Result: *res, PHFStats: st}, nil
}
