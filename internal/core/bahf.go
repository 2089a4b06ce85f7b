package core

import (
	"fmt"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
)

// BAHF implements Algorithm BA-HF (paper Figure 4): while the processor
// count assigned to a subproblem is at least κ/α + 1, split processors like
// BA; below that threshold, finish the subproblem with Algorithm HF. The
// threshold parameter κ > 0 trades running time against balance quality:
//
//	max_i w(p_i) ≤ (w(p)/n) · e^{(1−α)/κ} · r_α      (Theorem 8)
//
// so κ ≥ 1/ln(1+ε) brings the guarantee within a (1+ε) factor of HF's.
// Unlike BA, Algorithm BA-HF requires knowledge of the class's bisection
// parameter α. BAHF runs Planner.BAHFInto over the problem kernel.
func BAHF(p bisect.Problem, n int, alpha, kappa float64, opt Options) (*Result, error) {
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := bounds.ValidateKappa(kappa); err != nil {
		return nil, err
	}
	res, err := planProblem(p, n, opt, fmt.Sprintf("BA-HF(κ=%g)", kappa), func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode) error {
		return pl.BAHFInto(plan, k, root, n, alpha, kappa)
	})
	if err == nil && res.Tree != nil {
		replayProcs(res.Tree.Root, n, kappa/alpha+1)
	}
	return res, err
}
