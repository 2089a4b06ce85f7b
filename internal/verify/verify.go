package verify

import (
	"fmt"
	"math"

	"bisectlb/internal/bistree"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
)

// Violation is one failed invariant. Check names which invariant
// ("partition", "band", "guarantee", "parity", "plan"); Detail is a
// human-readable account with the numbers that falsify it.
type Violation struct {
	Check  string
	Detail string
}

func (v Violation) Error() string { return "verify: " + v.Check + ": " + v.Detail }

func violationf(check, format string, args ...any) error {
	return Violation{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// CheckPartition verifies the structural contract of an interface-path
// result against the requested processor count n: part count in [1, n],
// strictly ascending (hence unique) part IDs, positive weights summing to
// the total, Max/Ratio consistent, and — when the result carries a
// recorded bisection tree — the tree's own conservation invariants with
// leaves matching the parts.
func CheckPartition(r *core.Result, n int, tol float64) error {
	if r == nil {
		return violationf("partition", "nil result")
	}
	if r.N != n {
		return violationf("partition", "result records N=%d, caller requested %d", r.N, n)
	}
	if err := r.CheckPartition(tol); err != nil {
		return Violation{Check: "partition", Detail: err.Error()}
	}
	for i := 1; i < len(r.Parts); i++ {
		if r.Parts[i-1].Problem.ID() >= r.Parts[i].Problem.ID() {
			return violationf("partition", "part IDs not strictly ascending at index %d (%d ≥ %d)",
				i, r.Parts[i-1].Problem.ID(), r.Parts[i].Problem.ID())
		}
	}
	if want := bisectRatio(r.Max, r.Total, r.N); math.Abs(r.Ratio-want) > tol*math.Max(1, want) {
		return violationf("partition", "ratio %v inconsistent with max/total/N (want %v)", r.Ratio, want)
	}
	if r.Tree != nil {
		if err := r.Tree.CheckInvariants(tol); err != nil {
			return Violation{Check: "partition", Detail: err.Error()}
		}
		if got, want := r.Tree.NumLeaves(), len(r.Parts); got != want {
			return violationf("partition", "tree has %d leaves, result has %d parts", got, want)
		}
	}
	return nil
}

// bisectRatio mirrors bisect.Ratio without importing it (trivial formula;
// keeps the checker's arithmetic independent of the code under test).
func bisectRatio(maxW, total float64, n int) float64 {
	if total <= 0 {
		return math.NaN()
	}
	return maxW / (total / float64(n))
}

// CheckBand verifies that every recorded bisection in t lands inside the
// α-band: each child of a parent of weight w weighs at least α·w and at
// most (1−α)·w, within relative tolerance tol. This is the defining
// property of an α-bisector (paper Definition 1) applied to the
// bisections an algorithm actually performed.
func CheckBand(t *bistree.Tree, alpha, tol float64) error {
	if t == nil {
		return violationf("band", "nil tree")
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return Violation{Check: "band", Detail: err.Error()}
	}
	var bad error
	t.Walk(func(n *bistree.Node) {
		if bad != nil || n.IsLeaf() {
			return
		}
		w := n.Weight
		slack := tol * w
		for _, c := range n.Children {
			if c.Weight < alpha*w-slack || c.Weight > (1-alpha)*w+slack {
				bad = violationf("band",
					"bisection of node %d (w=%g) produced child %d with weight %g outside [α·w, (1−α)·w] = [%g, %g] at α=%g",
					n.ID, w, c.ID, c.Weight, alpha*w, (1-alpha)*w, alpha)
			}
		}
	})
	return bad
}

// guaranteeSlack is the absolute tolerance granted on top of a guarantee
// bound, absorbing the rounding of the ratio's own floating-point
// computation. The theorems are inequalities over exact reals; 1e-9 is
// ~1e6 ulps at ratio 2 — far above accumulated rounding, far below any
// genuine violation.
const guaranteeSlack = 1e-9

// CheckGuarantee verifies an interface-path result against the paper's
// worst-case ratio guarantee for its algorithm at class parameter α
// (κ only read for BA-HF), as bounds.Guarantee states it.
func CheckGuarantee(r *core.Result, alpha, kappa float64) error {
	if r == nil {
		return violationf("guarantee", "nil result")
	}
	return checkBound(r.Algorithm, r.Ratio, r.N, alpha, kappa, false)
}

// CheckMeasuredGuarantee verifies r.Ratio against the measured-α̂ bound
// bounds.Measured(r.Algorithm, ahat, r.N). ahat must be the realized
// bisector quality of this run (e.g. realizedAlpha of its recorded
// tree, or an AlphaRecorder minimum), and the run must have produced
// its full N parts for the bound to be sound.
func CheckMeasuredGuarantee(r *core.Result, ahat float64) error {
	if r == nil {
		return violationf("guarantee", "nil result")
	}
	return checkBound(r.Algorithm, r.Ratio, r.N, ahat, 0, true)
}

// checkBound is the ratio-vs-limit check of the three guarantee checks:
// the limit is bounds.Guarantee(alg, α, κ, n), or bounds.Measured(alg,
// α, n) when measured is set (α is then the realized α̂), and ratio may
// exceed it by guaranteeSlack.
func checkBound(alg string, ratio float64, n int, alpha, kappa float64, measured bool) error {
	var limit float64
	var err error
	if measured {
		limit, err = bounds.Measured(alg, alpha, n)
	} else {
		limit, err = bounds.Guarantee(alg, alpha, kappa, n)
	}
	if err != nil {
		return Violation{Check: "guarantee", Detail: err.Error()}
	}
	if ratio <= limit+guaranteeSlack {
		return nil
	}
	if measured {
		return violationf("guarantee", "%s ratio %v exceeds measured-α̂ bound %v at α̂=%g N=%d",
			alg, ratio, limit, alpha, n)
	}
	return violationf("guarantee", "%s ratio %v exceeds bound %v at α=%g κ=%g N=%d",
		alg, ratio, limit, alpha, kappa, n)
}

// CheckPlan verifies the structural contract of a flat-path plan against
// the requested processor count n: strictly ascending unique part IDs,
// positive weights summing to the total, Max/Ratio/MaxDepth consistent,
// and the processor accounting of the algorithm family — every HF/PHF
// part owns exactly one processor (count ≤ n), while a BA/BA-HF plan's
// processor counts sum to exactly n.
func CheckPlan(p *core.Plan, n int, tol float64) error {
	if p == nil {
		return violationf("plan", "nil plan")
	}
	if p.N != n {
		return violationf("plan", "plan records N=%d, caller requested %d", p.N, n)
	}
	if len(p.Parts) == 0 {
		return violationf("plan", "plan has no parts")
	}
	if len(p.Parts) > n {
		return violationf("plan", "%d parts exceed %d processors", len(p.Parts), n)
	}
	sum, maxW := 0.0, 0.0
	maxD := int32(0)
	procs := 0
	for i, pt := range p.Parts {
		if i > 0 && p.Parts[i-1].Node.ID >= pt.Node.ID {
			return violationf("plan", "part IDs not strictly ascending at index %d (%d ≥ %d)",
				i, p.Parts[i-1].Node.ID, pt.Node.ID)
		}
		w := pt.Node.Weight
		if !(w > 0) {
			return violationf("plan", "part %d has non-positive weight %g", pt.Node.ID, w)
		}
		if pt.Procs < 1 {
			return violationf("plan", "part %d assigned %d processors", pt.Node.ID, pt.Procs)
		}
		sum += w
		procs += int(pt.Procs)
		if w > maxW {
			maxW = w
		}
		if pt.Node.Depth > maxD {
			maxD = pt.Node.Depth
		}
	}
	if d := math.Abs(sum - p.Total); d > tol*p.Total {
		return violationf("plan", "part weights sum to %g, want %g", sum, p.Total)
	}
	if math.Abs(maxW-p.Max) > tol*p.Total {
		return violationf("plan", "recorded max %g, recomputed %g", p.Max, maxW)
	}
	if int(maxD) != p.MaxDepth {
		return violationf("plan", "recorded max depth %d, recomputed %d", p.MaxDepth, maxD)
	}
	if want := bisectRatio(p.Max, p.Total, p.N); math.Abs(p.Ratio-want) > tol*math.Max(1, want) {
		return violationf("plan", "ratio %v inconsistent with max/total/N (want %v)", p.Ratio, want)
	}
	switch p.Algorithm {
	case "HF", "PHF":
		for _, pt := range p.Parts {
			if pt.Procs != 1 {
				return violationf("plan", "%s part %d assigned %d processors, want 1", p.Algorithm, pt.Node.ID, pt.Procs)
			}
		}
	case "BA", "BA-HF":
		if procs != n {
			return violationf("plan", "%s processor counts sum to %d, want %d", p.Algorithm, procs, n)
		}
	}
	return nil
}

// CheckPlanGuarantee verifies a flat-path plan against the paper's
// worst-case ratio guarantee for its algorithm, exactly as CheckGuarantee
// does for interface-path results.
func CheckPlanGuarantee(p *core.Plan, alpha, kappa float64) error {
	if p == nil {
		return violationf("guarantee", "nil plan")
	}
	return checkBound(p.Algorithm, p.Ratio, p.N, alpha, kappa, false)
}

// CheckResultParity verifies that two interface-path results are the same
// partition part for part: equal length, and per index bit-identical
// weight, equal ID, equal depth. It is the executable form of Theorem 3
// (PHF produces the same partitioning as HF). Both results sort parts in
// ID order, so index-wise comparison is canonical.
//
// The identity is exact only when subproblem weights are pairwise
// distinct (PHF's tie caveat); callers must restrict it to tie-free
// substrates such as the continuous synthetic family.
func CheckResultParity(a, b *core.Result) error {
	if a == nil || b == nil {
		return violationf("parity", "nil result")
	}
	if len(a.Parts) != len(b.Parts) {
		return violationf("parity", "%s has %d parts, %s has %d", a.Algorithm, len(a.Parts), b.Algorithm, len(b.Parts))
	}
	for i := range a.Parts {
		pa, pb := a.Parts[i], b.Parts[i]
		if pa.Problem.ID() != pb.Problem.ID() {
			return violationf("parity", "part %d: %s has ID %d, %s has ID %d",
				i, a.Algorithm, pa.Problem.ID(), b.Algorithm, pb.Problem.ID())
		}
		if pa.Problem.Weight() != pb.Problem.Weight() {
			return violationf("parity", "part %d (ID %d): weights differ bitwise: %v vs %v",
				i, pa.Problem.ID(), pa.Problem.Weight(), pb.Problem.Weight())
		}
		if pa.Depth != pb.Depth {
			return violationf("parity", "part %d (ID %d): depths differ: %d vs %d",
				i, pa.Problem.ID(), pa.Depth, pb.Depth)
		}
	}
	return nil
}

// CheckPlanParity verifies that a flat-path plan is bit-identical to the
// interface-path result of the same algorithm on the same substrate:
// same part IDs, bitwise-equal weights, equal depths and processor
// counts, and matching summary statistics (Total, Max, Ratio bitwise;
// Bisections and MaxDepth exactly). This is the contract that lets a
// flat kernel stand in for its Problem form anywhere.
func CheckPlanParity(p *core.Plan, r *core.Result) error {
	if p == nil || r == nil {
		return violationf("parity", "nil plan or result")
	}
	if p.Algorithm != r.Algorithm {
		return violationf("parity", "plan algorithm %q vs result algorithm %q", p.Algorithm, r.Algorithm)
	}
	if p.N != r.N {
		return violationf("parity", "plan N=%d vs result N=%d", p.N, r.N)
	}
	if len(p.Parts) != len(r.Parts) {
		return violationf("parity", "plan has %d parts, result has %d", len(p.Parts), len(r.Parts))
	}
	for i := range p.Parts {
		fp, rp := p.Parts[i], r.Parts[i]
		if fp.Node.ID != rp.Problem.ID() {
			return violationf("parity", "part %d: plan ID %d vs result ID %d", i, fp.Node.ID, rp.Problem.ID())
		}
		if fp.Node.Weight != rp.Problem.Weight() {
			return violationf("parity", "part %d (ID %d): weights differ bitwise: %v vs %v",
				i, fp.Node.ID, fp.Node.Weight, rp.Problem.Weight())
		}
		if int(fp.Node.Depth) != rp.Depth {
			return violationf("parity", "part %d (ID %d): plan depth %d vs result depth %d",
				i, fp.Node.ID, fp.Node.Depth, rp.Depth)
		}
		if int(fp.Procs) != rp.Procs {
			return violationf("parity", "part %d (ID %d): plan procs %d vs result procs %d",
				i, fp.Node.ID, fp.Procs, rp.Procs)
		}
	}
	if p.Total != r.Total || p.Max != r.Max || p.Ratio != r.Ratio {
		return violationf("parity", "summary differs: plan (total=%v max=%v ratio=%v) vs result (total=%v max=%v ratio=%v)",
			p.Total, p.Max, p.Ratio, r.Total, r.Max, r.Ratio)
	}
	if p.Bisections != r.Bisections {
		return violationf("parity", "plan performed %d bisections, result %d", p.Bisections, r.Bisections)
	}
	if p.MaxDepth != r.MaxDepth {
		return violationf("parity", "plan max depth %d, result %d", p.MaxDepth, r.MaxDepth)
	}
	return nil
}

// CheckPlansEqual verifies that two flat-path plans are bit-identical —
// the reuse contract of BalanceInto: refilling a dst Plan of any prior
// size must yield exactly the plan a fresh computation yields.
func CheckPlansEqual(a, b *core.Plan) error {
	if a == nil || b == nil {
		return violationf("parity", "nil plan")
	}
	if a.Algorithm != b.Algorithm || a.N != b.N || a.Total != b.Total ||
		a.Max != b.Max || a.Ratio != b.Ratio || a.Bisections != b.Bisections || a.MaxDepth != b.MaxDepth {
		return violationf("parity", "plan summaries differ: %+v vs %+v",
			[7]any{a.Algorithm, a.N, a.Total, a.Max, a.Ratio, a.Bisections, a.MaxDepth},
			[7]any{b.Algorithm, b.N, b.Total, b.Max, b.Ratio, b.Bisections, b.MaxDepth})
	}
	if len(a.Parts) != len(b.Parts) {
		return violationf("parity", "plans have %d vs %d parts", len(a.Parts), len(b.Parts))
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			return violationf("parity", "part %d differs: %+v vs %+v", i, a.Parts[i], b.Parts[i])
		}
	}
	return nil
}
