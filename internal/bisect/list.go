package bisect

import (
	"fmt"
	"math"

	"bisectlb/internal/xrand"
)

// List models the paper's concrete justification for the stochastic model:
// "problems are represented by lists of elements taken from an ordered set,
// and a list is bisected by choosing a random pivot element and partitioning
// the list into those elements that are smaller than the pivot and those
// that are larger". The weight of a list problem is its element count.
//
// An unrestricted random pivot gives no α-bisector guarantee, so List
// supports a guard rank window: the pivot rank is drawn uniformly from
// [⌈α·n⌉, ⌊(1−α)·n⌋], which makes the class an α-bisector class while
// keeping the split fraction (conditionally) uniform — the distribution the
// paper assumes. A list is indivisible once it has fewer than two
// elements or its guard window is empty.
type List = Node[ListKernel]

// NewList creates a list problem with n elements and pivot guard α.
// α = 0 is rejected because a zero-width guard can produce empty halves,
// which would violate the positive-weight contract.
func NewList(n int, alpha float64, seed uint64) (*List, error) {
	if n < 1 {
		return nil, fmt.Errorf("bisect: list length %d must be ≥ 1", n)
	}
	if !(alpha > 0) || alpha > 0.5 {
		return nil, fmt.Errorf("bisect: invalid list guard α %v; need 0 < α ≤ 1/2", alpha)
	}
	return &List{node: ListFlatRoot(n, alpha, seed), kernel: ListKernel{Alpha: alpha}}, nil
}

// MustList is NewList that panics on error.
func MustList(n int, alpha float64, seed uint64) *List {
	p, err := NewList(n, alpha, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// ListKernel splits the list substrate: a list of S1 elements is bisected
// around a pivot rank drawn uniformly from the guard window
// [⌈α·n⌉, ⌊(1−α)·n⌋]. State: S0 is the node seed (also its ID), S1 the
// element count.
type ListKernel struct {
	Alpha float64
}

// ListFlatRoot returns the flat root node of NewList(elems, alpha, seed).
func ListFlatRoot(elems int, alpha float64, seed uint64) FlatNode {
	n := FlatNode{Weight: float64(elems), ID: seed, S0: seed, S1: uint64(elems)}
	n.Leaf = listLeaf(elems, alpha)
	return n
}

// listLeaf reports whether a list of length elems is indivisible under
// guard α.
func listLeaf(elems int, alpha float64) bool {
	lo, hi := listPivotWindow(elems, alpha)
	return !(elems >= 2 && lo <= hi)
}

// listPivotWindow returns the inclusive range of admissible left-half
// sizes.
func listPivotWindow(length int, alpha float64) (lo, hi int) {
	n := float64(length)
	lo = int(math.Ceil(alpha * n))
	hi = int((1 - alpha) * n)
	if lo < 1 {
		lo = 1
	}
	if hi > length-1 {
		hi = length - 1
	}
	return lo, hi
}

// Split partitions the list around a pivot rank drawn from the node's
// seed stream, heavier half first.
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
