package core

import (
	"fmt"
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
)

// Part is one subproblem of the computed partition.
type Part struct {
	Problem bisect.Problem
	// Procs is the number of processors responsible for the subproblem.
	// It is 1 for every part of an HF/PHF partition; the BA family can
	// assign several processors to an indivisible problem (the extras
	// stay idle).
	Procs int
	// Depth is the part's depth in the bisection tree (root = 0).
	Depth int
}

// Result is the outcome of one load-balancing run.
type Result struct {
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Parts are the computed subproblems in ascending problem-ID order.
	Parts []Part
	// N is the requested processor count.
	N int
	// Total is the root problem weight.
	Total float64
	// Max is the heaviest part weight.
	Max float64
	// Ratio is Max / (Total/N), the paper's quality measure.
	Ratio float64
	// Bisections is the number of bisection steps performed.
	Bisections int
	// MaxDepth is the deepest leaf of the bisection tree.
	MaxDepth int
	// Tree is the recorded bisection tree, nil unless requested.
	Tree *bistree.Tree
}

// Options configure an algorithm run.
type Options struct {
	// RecordTree enables bisection-tree recording on the Result. Recording
	// costs memory proportional to the number of bisections.
	RecordTree bool
}

// PartIDs returns the sorted problem IDs of a result's parts.
func (r *Result) PartIDs() []uint64 {
	ids := make([]uint64, len(r.Parts))
	for i, pt := range r.Parts {
		ids[i] = pt.Problem.ID()
	}
	return ids
}

// Weights returns the part weights in ID order.
func (r *Result) Weights() []float64 {
	ws := make([]float64, len(r.Parts))
	for i, pt := range r.Parts {
		ws[i] = pt.Problem.Weight()
	}
	return ws
}

// SamePartition reports whether two results consist of exactly the same
// subproblems, identified by problem ID. It is the executable form of the
// paper's Theorem 3 ("Algorithm PHF produces the same partitioning of p into
// subproblems as Algorithm HF").
func SamePartition(a, b *Result) bool {
	if a == nil || b == nil || len(a.Parts) != len(b.Parts) {
		return false
	}
	ai, bi := a.PartIDs(), b.PartIDs()
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	return true
}

// CheckPartition verifies the structural contract of a result: part count
// within [1, N], all weights positive, weights summing to the total within
// relative tolerance tol, and Max/Ratio consistent. Algorithms are tested
// against it; users can call it to validate custom Problem implementations.
func (r *Result) CheckPartition(tol float64) error {
	if len(r.Parts) == 0 {
		return fmt.Errorf("core: result has no parts")
	}
	if len(r.Parts) > r.N {
		return fmt.Errorf("core: %d parts exceed %d processors", len(r.Parts), r.N)
	}
	sum := 0.0
	maxW := 0.0
	for _, pt := range r.Parts {
		w := pt.Problem.Weight()
		if !(w > 0) {
			return fmt.Errorf("core: part %d has non-positive weight %g", pt.Problem.ID(), w)
		}
		if pt.Procs < 1 {
			return fmt.Errorf("core: part %d assigned %d processors", pt.Problem.ID(), pt.Procs)
		}
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if d := math.Abs(sum - r.Total); d > tol*r.Total {
		return fmt.Errorf("core: part weights sum to %g, want %g", sum, r.Total)
	}
	if math.Abs(maxW-r.Max) > tol*r.Total {
		return fmt.Errorf("core: recorded max %g, recomputed %g", r.Max, maxW)
	}
	return nil
}
