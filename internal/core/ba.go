package core

import (
	"math"

	"bisectlb/internal/bisect"
)

// SplitProcs implements BA's processor partitioning rule (paper Figure 3):
// given children weights w1 ≥ w2 and n ≥ 2 processors, assign n1 processors
// to the heavy child and n−n1 to the light child such that
// max(w1/n1, w2/n2) is minimised — the "best approximation of ideal weight".
// The minimiser always lies in {⌊β̂·n⌋, ⌈β̂·n⌉} with β̂ = w1/(w1+w2), clamped
// into [1, n−1]; ties choose the floor, matching the paper's "n1 := ⌊β̂n⌋ if
// d ≤ …" preference for the smaller allocation.
func SplitProcs(w1, w2 float64, n int) (n1, n2 int) {
	if n < 2 {
		panic("core: SplitProcs needs n ≥ 2")
	}
	if !(w1 > 0) || !(w2 > 0) || w1 < w2 {
		panic("core: SplitProcs needs w1 ≥ w2 > 0")
	}
	bhat := w1 / (w1 + w2)
	exact := bhat * float64(n)
	lo := int(math.Floor(exact))
	hi := lo + 1
	lo = clamp(lo, 1, n-1)
	hi = clamp(hi, 1, n-1)
	costLo := splitCost(w1, w2, lo, n)
	costHi := splitCost(w1, w2, hi, n)
	if costHi < costLo {
		return hi, n - hi
	}
	return lo, n - lo
}

func splitCost(w1, w2 float64, n1, n int) float64 {
	a := w1 / float64(n1)
	b := w2 / float64(n-n1)
	if a > b {
		return a
	}
	return b
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NaiveSplitProcs assigns n1 = clamp(⌊β̂·n⌋) without considering the ⌈·⌉
// candidate. It is the ablation baseline for the best-approximation rule
// (DESIGN.md §7) and intentionally not used by any algorithm.
func NaiveSplitProcs(w1, w2 float64, n int) (n1, n2 int) {
	if n < 2 {
		panic("core: NaiveSplitProcs needs n ≥ 2")
	}
	bhat := w1 / (w1 + w2)
	n1 = clamp(int(math.Floor(bhat*float64(n))), 1, n-1)
	return n1, n - n1
}

// splitRule is the processor-partitioning strategy used by a BA-family run.
type splitRule func(w1, w2 float64, n int) (int, int)

// BA implements Algorithm BA (Best Approximation of ideal weight, paper
// Figure 3): bisect the problem, split the processors between the two
// children proportionally to their weights using SplitProcs, and recurse.
// BA needs no knowledge of the bisection parameter α, performs exactly n−1
// bisections (for divisible problems), requires no global communication and
// admits the trivial range-based free-processor management of Section 3.4.
//
// Theorem 7 guarantees max_i w(p_i) ≤ (w(p)/n) · e·(1/α)(1−α)^{⌈1/(2α)⌉−1}
// for classes with α-bisectors.
func BA(p bisect.Problem, n int, opt Options) (*Result, error) {
	return baRun(p, n, opt, SplitProcs, 0, "BA")
}

// BANaiveSplit is BA with the NaiveSplitProcs ablation rule.
func BANaiveSplit(p bisect.Problem, n int, opt Options) (*Result, error) {
	return baRun(p, n, opt, NaiveSplitProcs, 0, "BA-naive")
}

// baRun is the shared body of BA, BANaiveSplit and BAHF: the BA
// recursion from the root under rule, finishing with HF below cutoff.
func baRun(p bisect.Problem, n int, opt Options, rule splitRule, cutoff float64, name string) (*Result, error) {
	if err := validate(p, n); err != nil {
		return nil, err
	}
	r := newRun(opt, p, n)
	if err := r.split(p, n, 0, rule, cutoff); err != nil {
		return nil, err
	}
	return r.finish(name, n, p.Weight()), nil
}

// split runs the BA recursion on q with procs processors, appending
// parts at their absolute bisection-tree depth. Subproblems whose
// processor count drops below cutoff finish with the HF loop instead —
// the BA-HF hybrid; a cutoff of 0 is plain BA. It is the interface-path
// counterpart of Planner.baExpand, and like it records the processor
// count of BA levels only.
func (r *run) split(q bisect.Problem, procs, depth int, rule splitRule, cutoff float64) error {
	r.rec.procs(q, procs)
	if procs == 1 || !q.CanBisect() {
		r.parts = append(r.parts, Part{Problem: q, Procs: procs, Depth: depth})
		return nil
	}
	if float64(procs) < cutoff {
		return r.heaviestFirst(q, procs, depth)
	}
	c1, c2, err := r.bisect(q)
	if err != nil {
		return err
	}
	// Order children so c1 is the heavy one, per the "w.l.o.g." in the
	// paper; substrates already return heavy-first but a custom Problem
	// implementation need not.
	if c1.Weight() < c2.Weight() {
		c1, c2 = c2, c1
	}
	n1, n2 := rule(c1.Weight(), c2.Weight(), procs)
	if err := r.split(c1, n1, depth+1, rule, cutoff); err != nil {
		return err
	}
	return r.split(c2, n2, depth+1, rule, cutoff)
}
