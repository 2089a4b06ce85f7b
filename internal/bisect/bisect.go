// Package bisect defines the abstract problem model of the paper: classes of
// problems with α-bisectors.
//
// A class P of problems with weight function w : P → R+ has α-bisectors
// (0 < α ≤ 1/2) if every problem p ∈ P can be divided efficiently into two
// problems p1, p2 ∈ P with
//
//	w(p1) + w(p2) = w(p)   and   w(p1), w(p2) ∈ [α·w(p), (1−α)·w(p)].
//
// The load-balancing algorithms in internal/core plan FlatNodes split by a
// Kernel (flat.go), and any Problem reaches them through core's problem
// kernel, so any substrate (synthetic weights, FE-trees, quadrature
// regions, search frontiers) plugs in unchanged. The built-in synthetic,
// fixed and list substrates are written once, as kernels; their Problem
// forms are Node values over those kernels.
package bisect

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a unit of load that can be bisected. Implementations must be
// deterministic: bisecting the same problem value twice must yield the same
// two children (weights and IDs). That property is what lets the test suite
// verify the paper's Theorem 3 (PHF produces exactly HF's partition).
type Problem interface {
	// Weight returns the load of the problem. It must be positive and
	// finite for any problem reachable by bisection from a valid root.
	Weight() float64

	// CanBisect reports whether Bisect may be called. The paper's abstract
	// model assumes infinite divisibility; concrete substrates (a one-node
	// tree, a one-element list) bottom out, and the algorithms then leave
	// the indivisible subproblem on a single processor.
	CanBisect() bool

	// Bisect splits the problem into two children whose weights sum to the
	// parent weight. Calling Bisect when CanBisect is false panics.
	Bisect() (Problem, Problem)

	// ID returns an identifier unique among all problems reachable in one
	// run. IDs make heap tie-breaking and partition comparison exact.
	ID() uint64
}

// Sentinel errors shared by the algorithm layer.
var (
	// ErrNilProblem is returned when a nil root problem is supplied.
	ErrNilProblem = errors.New("bisect: nil problem")
	// ErrBadWeight is returned when a root problem has a non-positive or
	// non-finite weight.
	ErrBadWeight = errors.New("bisect: problem weight must be positive and finite")
)

// ValidateRoot checks the preconditions every balancing algorithm shares.
func ValidateRoot(p Problem) error {
	if p == nil {
		return ErrNilProblem
	}
	w := p.Weight()
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("%w (got %v)", ErrBadWeight, w)
	}
	return nil
}

// Violation describes one breach of the α-bisector contract found by Check.
type Violation struct {
	ParentID uint64
	Parent   float64
	Child1   float64
	Child2   float64
	Reason   string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d (w=%g → %g + %g): %s", v.ParentID, v.Parent, v.Child1, v.Child2, v.Reason)
}

// Check explores the bisection tree of p down to maxDepth levels and reports
// every violation of the α-bisector contract: children must sum to the
// parent (within relative tolerance tol) and each child must lie inside
// [α·w, (1−α)·w] (with the same tolerance on the boundaries). A nil result
// means the explored region satisfies the contract.
func Check(p Problem, alpha float64, maxDepth int, tol float64) []Violation {
	if p == nil {
		return []Violation{{Reason: "nil problem"}}
	}
	if tol < 0 {
		tol = 0
	}
	var out []Violation
	var walk func(q Problem, depth int)
	walk = func(q Problem, depth int) {
		if depth >= maxDepth || !q.CanBisect() {
			return
		}
		w := q.Weight()
		c1, c2 := q.Bisect()
		w1, w2 := c1.Weight(), c2.Weight()
		slack := tol * w
		if math.Abs(w1+w2-w) > slack {
			out = append(out, Violation{q.ID(), w, w1, w2, "children do not sum to parent"})
		}
		lo, hi := alpha*w-slack, (1-alpha)*w+slack
		for _, cw := range []float64{w1, w2} {
			if cw < lo || cw > hi {
				out = append(out, Violation{q.ID(), w, w1, w2,
					fmt.Sprintf("child weight %g outside [%g, %g]", cw, alpha*w, (1-alpha)*w)})
				break
			}
		}
		walk(c1, depth+1)
		walk(c2, depth+1)
	}
	walk(p, 0)
	return out
}

// MaxWeight returns the largest weight among the given subproblems, or 0 for
// an empty slice.
func MaxWeight(ps []Problem) float64 {
	m := 0.0
	for _, p := range ps {
		if w := p.Weight(); w > m {
			m = w
		}
	}
	return m
}

// TotalWeight returns the weight sum of the given subproblems.
func TotalWeight(ps []Problem) float64 {
	t := 0.0
	for _, p := range ps {
		t += p.Weight()
	}
	return t
}

// Ratio returns the paper's quality measure: the maximum subproblem weight
// relative to the ideal per-processor share total/n. It returns NaN when the
// inputs make the measure meaningless.
func Ratio(maxWeight, total float64, n int) float64 {
	if n <= 0 || !(total > 0) {
		return math.NaN()
	}
	return maxWeight / (total / float64(n))
}
