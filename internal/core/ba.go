package core

import (
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
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

// BA implements Algorithm BA (Best Approximation of ideal weight, paper
// Figure 3): bisect the problem, split the processors between the two
// children proportionally to their weights using SplitProcs, and recurse.
// BA needs no knowledge of the bisection parameter α, performs exactly n−1
// bisections (for divisible problems), requires no global communication and
// admits the trivial range-based free-processor management of Section 3.4.
//
// Theorem 7 guarantees max_i w(p_i) ≤ (w(p)/n) · e·(1/α)(1−α)^{⌈1/(2α)⌉−1}
// for classes with α-bisectors. BA runs Planner.BAInto over the problem
// kernel.
func BA(p bisect.Problem, n int, opt Options) (*Result, error) {
	res, err := planProblem(p, n, opt, "BA", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode) error {
		return pl.BAInto(plan, k, root, n)
	})
	if err == nil && res.Tree != nil {
		replayProcs(res.Tree.Root, n, 0)
	}
	return res, err
}

// replayProcs annotates a recorded BA or BA-HF bisection tree with the
// processor count of every BA level, replaying SplitProcs from nd with
// procs processors. It stops where BA stops splitting processors: at one
// processor, at a leaf, and below the BA-HF cutoff, whose subtree the HF
// phase planned.
func replayProcs(nd *bistree.Node, procs int, cutoff float64) {
	nd.Procs = procs
	if procs == 1 || nd.IsLeaf() || float64(procs) < cutoff {
		return
	}
	c1, c2 := nd.Children[0], nd.Children[1]
	if c1.Weight < c2.Weight {
		c1, c2 = c2, c1
	}
	n1, n2 := SplitProcs(c1.Weight, c2.Weight, procs)
	replayProcs(c1, n1, cutoff)
	replayProcs(c2, n2, cutoff)
}

// BANaiveSplit is BA with the NaiveSplitProcs ablation rule. It is the
// one algorithm the Planner does not run: an ablation baseline does not
// earn a rule parameter on the planner's BA loop, so it is this small
// recursion over the problem kernel instead.
func BANaiveSplit(p bisect.Problem, n int, opt Options) (*Result, error) {
	root, k, err := NewProblemKernel(p, opt)
	if err != nil {
		return nil, err
	}
	if err := plannerValidate(root, n); err != nil {
		return nil, err
	}
	var plan Plan
	plan.reset("BA-naive", n, root.Weight)
	bisections := 0
	var split func(nd bisect.FlatNode, procs int)
	split = func(nd bisect.FlatNode, procs int) {
		if k.tree != nil && k.err == nil {
			// Cannot fail: with no recording error, every node
			// reached has been recorded.
			_ = k.tree.SetProcs(nd.ID, procs)
		}
		if procs == 1 || !k.CanSplit(nd) {
			plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: int32(procs)})
			return
		}
		c1, c2 := k.Split(nd)
		bisections++
		if c1.Weight < c2.Weight {
			c1, c2 = c2, c1
		}
		n1, n2 := NaiveSplitProcs(c1.Weight, c2.Weight, procs)
		split(c1, n1)
		split(c2, n2)
	}
	split(root, n)
	plan.finalize(new(idSort), bisections)
	return k.result(&plan, "BA-naive")
}
