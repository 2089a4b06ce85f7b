package bisect

import (
	"fmt"
	"math"

	"bisectlb/internal/xrand"
)

// FlatNode is the value-type representation of a subproblem used by the
// allocation-free planner core (internal/core.Planner). Where the Problem
// interface carries subproblems as heap-allocated objects behind interface
// values — one or two allocations per bisection — a FlatNode is a plain
// struct that lives in caller-owned slices: weight, identity, up to two
// words of substrate state, and the bisection-tree depth.
//
// A Kernel interprets the state words. For the synthetic stochastic model
// S0 is the node's RNG seed; for the fixed adversarial class the ID doubles
// as the implicit-tree position and no extra state is needed; for the list
// substrate S0 is the seed and S1 the element count. Kernels must derive
// children exactly as the corresponding Problem implementation does —
// same arithmetic, same seed derivation — so that a flat kernel and its
// Problem form produce bit-identical partitions (verified by the parity
// tests in flat_test.go and planner_test.go).
type FlatNode struct {
	// Weight is the node's load, w(p).
	Weight float64
	// ID identifies the node uniquely within a run, exactly as Problem.ID.
	ID uint64
	// S0, S1 are substrate state words interpreted by the Kernel.
	S0, S1 uint64
	// Depth is the node's distance from the root of the bisection tree.
	Depth int32
	// Leaf marks a node its kernel already knows to be indivisible
	// (CanBisect() == false). It is a cached verdict: a LazyKernel may
	// leave it false and answer CanSplit when the planner reaches the
	// node instead.
	Leaf bool
}

// Kernel computes bisections for a class of flat problems. Implementations
// must be deterministic, must set the children's Depth to parent.Depth+1,
// must return the children in the order the substrate's Problem.Bisect
// does (heavy first for every built-in substrate), and should not
// allocate — the planner's zero-allocation guarantee depends on it. Split must not be
// called on a node with Leaf == true, nor on one a LazyKernel's CanSplit
// rejects.
type Kernel interface {
	Split(n FlatNode) (heavy, light FlatNode)
}

// LazyKernel is the optional extension of Kernel for substrates that
// learn whether a node is divisible only on demand — by running their
// bisector, for graph and spatial problems. The planners ask CanSplit
// at exactly the points where the Problem-interface algorithms call
// CanBisect: when HF pops a node, when BA reaches a frame with more than
// one processor, and when PHF's filters find a node above their weight
// cut. A kernel that wraps a LazyKernel must forward CanSplit, or the
// planners will split nodes the wrapped kernel cannot.
type LazyKernel interface {
	Kernel
	CanSplit(n FlatNode) bool
}

// SyntheticKernel is the flat form of the Synthetic substrate (the paper's
// Section 4 stochastic model): every bisection draws α̂ ~ U[Lo, Hi] from the
// node's seed stream and splits the weight into (1−α̂)·w and α̂·w. State:
// S0 is the node seed, which is also its ID.
type SyntheticKernel struct {
	Lo, Hi float64
}

// SyntheticFlatRoot returns the flat root node matching
// NewSynthetic(w, lo, hi, seed).
func SyntheticFlatRoot(w float64, seed uint64) FlatNode {
	return FlatNode{Weight: w, ID: seed, S0: seed}
}

// Split mirrors Synthetic.Bisect exactly: same RNG stream, same child-seed
// derivation, same floating-point operations.
func (k SyntheticKernel) Split(n FlatNode) (heavy, light FlatNode) {
	var rng xrand.Source
	rng.Reseed(n.S0)
	ahat := rng.InRange(k.Lo, k.Hi)
	heavyW := (1 - ahat) * n.Weight
	lightW := n.Weight - heavyW
	hs, ls := xrand.Mix(n.S0, 1), xrand.Mix(n.S0, 2)
	heavy = FlatNode{Weight: heavyW, ID: hs, S0: hs, Depth: n.Depth + 1}
	light = FlatNode{Weight: lightW, ID: ls, S0: ls, Depth: n.Depth + 1}
	return heavy, light
}

// FixedKernel is the flat form of the Fixed adversarial substrate: every
// bisection splits exactly into (1−α)·w and α·w. State: the ID is the
// root of a mixed derivation chain (root 1, children Mix(id, 1) and
// Mix(id, 2), matching Fixed.Bisect); no extra words are needed. The
// mixed scheme replaced implicit-binary-tree numbering, which overflowed
// uint64 below depth 63 and produced duplicate IDs.
type FixedKernel struct {
	Alpha float64
}

// FixedFlatRoot returns the flat root node matching NewFixed(w, alpha).
func FixedFlatRoot(w float64) FlatNode {
	return FlatNode{Weight: w, ID: 1}
}

// Split mirrors Fixed.Bisect exactly.
func (k FixedKernel) Split(n FlatNode) (heavy, light FlatNode) {
	heavyW := (1 - k.Alpha) * n.Weight
	heavy = FlatNode{Weight: heavyW, ID: xrand.Mix(n.ID, 1), Depth: n.Depth + 1}
	light = FlatNode{Weight: n.Weight - heavyW, ID: xrand.Mix(n.ID, 2), Depth: n.Depth + 1}
	return heavy, light
}

// ListKernel is the flat form of the List substrate: a list of S1 elements
// is bisected around a pivot rank drawn uniformly from the guard window
// [⌈α·n⌉, ⌊(1−α)·n⌋]. State: S0 is the node seed (also its ID), S1 the
// element count.
type ListKernel struct {
	Alpha float64
}

// ListFlatRoot returns the flat root node matching NewList(elems, alpha, seed).
func ListFlatRoot(elems int, alpha float64, seed uint64) FlatNode {
	n := FlatNode{Weight: float64(elems), ID: seed, S0: seed, S1: uint64(elems)}
	n.Leaf = listLeaf(elems, alpha)
	return n
}

// listLeaf reports whether a list of length elems is indivisible under
// guard α, mirroring List.CanBisect.
func listLeaf(elems int, alpha float64) bool {
	lo, hi := listPivotWindow(elems, alpha)
	return !(elems >= 2 && lo <= hi)
}

// listPivotWindow mirrors List.pivotWindow.
func listPivotWindow(length int, alpha float64) (lo, hi int) {
	n := float64(length)
	lo = int(ceilPos(alpha * n))
	hi = int((1 - alpha) * n)
	if lo < 1 {
		lo = 1
	}
	if hi > length-1 {
		hi = length - 1
	}
	return lo, hi
}

// Split mirrors List.Bisect exactly: same pivot window, same RNG stream,
// same child-seed derivation, heavy half first.
func (k ListKernel) Split(n FlatNode) (heavy, light FlatNode) {
	length := int(n.S1)
	lo, hi := listPivotWindow(length, k.Alpha)
	if length < 2 || lo > hi {
		panic("bisect: Split on indivisible list node")
	}
	var rng xrand.Source
	rng.Reseed(n.S0)
	left := lo + rng.Intn(hi-lo+1)
	right := length - left
	as, bs := xrand.Mix(n.S0, 1), xrand.Mix(n.S0, 2)
	a := FlatNode{Weight: float64(left), ID: as, S0: as, S1: uint64(left), Depth: n.Depth + 1, Leaf: listLeaf(left, k.Alpha)}
	b := FlatNode{Weight: float64(right), ID: bs, S0: bs, S1: uint64(right), Depth: n.Depth + 1, Leaf: listLeaf(right, k.Alpha)}
	if left >= right {
		return a, b
	}
	return b, a
}

// ValidateFlatRoot checks the preconditions the planner shares with
// ValidateRoot: a positive, finite root weight.
func ValidateFlatRoot(n FlatNode) error {
	if !(n.Weight > 0) || math.IsInf(n.Weight, 0) {
		return fmt.Errorf("%w (got %v)", ErrBadWeight, n.Weight)
	}
	return nil
}
