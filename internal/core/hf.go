package core

import "bisectlb/internal/bisect"

// HF implements Algorithm HF (Heaviest Problem First, paper Figure 1): keep
// a pool of subproblems initialised to {p} and, while the pool holds fewer
// than n subproblems, bisect a subproblem of maximum weight. Ties on weight
// are broken by the smaller problem ID so runs are reproducible.
//
// For a class with α-bisectors, Theorem 2 guarantees
//
//	max_i w(p_i) ≤ (w(p)/n) · r_α,   r_α = (1/α)(1−α)^{⌈1/α⌉−2},
//
// using exactly n−1 bisections. HF is the sequential baseline every parallel
// algorithm in this package is measured against.
//
// Indivisible subproblems (CanBisect() == false) are parked as final parts;
// if every remaining subproblem is indivisible the partition ends with fewer
// than n parts, which the paper's model explicitly allows ("some processors
// remain idle"). HF runs Planner.HFInto over the problem kernel.
func HF(p bisect.Problem, n int, opt Options) (*Result, error) {
	return planProblem(p, n, opt, "HF", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode) error {
		return pl.HFInto(plan, k, root, n)
	})
}
