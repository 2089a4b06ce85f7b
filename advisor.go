package bisectlb

import (
	"fmt"

	"bisectlb/internal/bounds"
)

// MachineProfile describes the deployment the paper's conclusion says the
// algorithm choice must account for: "one must take into account the
// characteristics of the parallel machine architecture as well as the
// relative importance of fast running-time of the load balancing algorithm
// and of the quality of the achieved load balance."
type MachineProfile struct {
	// GlobalOpsCheap is true when O(log N) collectives (reductions,
	// barriers, parallel selection) are efficient on the target machine —
	// typical for tightly-coupled machines, false for loose clusters.
	GlobalOpsCheap bool
	// BalanceCritical is true when load-balance quality dominates the
	// total run time (long-running subproblems), false when the balancing
	// step itself must be as fast and simple as possible.
	BalanceCritical bool
	// Sequential is true when the load balancing itself runs on a single
	// processor anyway (e.g. a coordinator node), removing the need for a
	// parallel balancing algorithm.
	Sequential bool
}

// Recommendation is the advisor's outcome.
type Recommendation struct {
	Algorithm Algorithm
	// Kappa is the suggested threshold parameter when the algorithm is
	// BA-HF, zero otherwise.
	Kappa float64
	// Guarantee is the worst-case ratio bound of the recommendation.
	Guarantee float64
	// Rationale states the deciding trade-off in one sentence.
	Rationale string
}

// Recommend encodes the decision guidance of the paper's conclusion as a
// deterministic rule:
//
//   - A sequential balancer wants HF: best guarantee, simplest code.
//   - A parallel machine with cheap global operations wants PHF: HF's
//     guarantee in O(log N) time.
//   - Without cheap global operations, BA is the only algorithm with zero
//     global communication; when balance quality is critical, BA-HF with
//     κ = 1/ln(1+ε) recovers HF's guarantee up to the chosen ε at the cost
//     of the PHF-style second phase on processor groups of bounded size.
//
// The quality tolerance eps > 0 only matters for the BA-HF branch.
func Recommend(alpha float64, n int, eps float64, profile MachineProfile) (*Recommendation, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("bisectlb: eps must be positive, got %v", eps)
	}
	rec := &Recommendation{Algorithm: BAAlgorithm,
		Rationale: "loosely-coupled machine and speed-focused balancing: BA needs no global communication and trivial free-processor management"}
	switch {
	case profile.Sequential || n == 1:
		rec.Algorithm = HFAlgorithm
		rec.Rationale = "balancing runs sequentially, so HF's best-in-class guarantee costs nothing extra"
	case profile.GlobalOpsCheap:
		rec.Algorithm = PHFAlgorithm
		rec.Rationale = "cheap global operations make PHF deliver HF's exact partition in O(log N) time"
	case profile.BalanceCritical:
		rec.Algorithm = BAHFAlgorithm
		rec.Kappa = bounds.KappaFor(eps)
		rec.Rationale = fmt.Sprintf("no cheap global ops but quality matters: BA-HF with κ=%.2f stays within (1+%g) of HF's guarantee", rec.Kappa, eps)
	}
	// Guarantee rejects an invalid α or n.
	g, err := bounds.Guarantee(rec.Algorithm.String(), alpha, rec.Kappa, n)
	if err != nil {
		return nil, err
	}
	rec.Guarantee = g
	return rec, nil
}
