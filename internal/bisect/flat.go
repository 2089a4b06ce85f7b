package bisect

import (
	"fmt"
	"math"
)

// FlatNode is the value-type representation of a subproblem used by the
// allocation-free planner core (internal/core.Planner). Where the Problem
// interface carries subproblems as heap-allocated objects behind interface
// values — one or two allocations per bisection — a FlatNode is a plain
// struct that lives in caller-owned slices: weight, identity, up to two
// words of substrate state, and the bisection-tree depth.
//
// A Kernel interprets the state words. For the synthetic stochastic model
// S0 is the node's RNG seed; for the fixed adversarial class the ID roots
// the child-ID derivation and no extra state is needed; for the list
// substrate S0 is the seed and S1 the element count. A substrate written
// as a kernel gets its Problem form from Node, so the two forms cannot
// disagree.
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
// must return the children in a fixed order (heavy first for every
// built-in substrate), and should not allocate — the planner's
// zero-allocation guarantee depends on it. Split must not be called on a
// node with Leaf == true, nor on one a LazyKernel's CanSplit rejects.
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

// Node is the Problem form of a kernel's node: the substrate is written
// once, as its Kernel, and Node answers the Problem interface from it.
// Synthetic, Fixed and List are its built-in instantiations.
type Node[K Kernel] struct {
	node   FlatNode
	kernel K
}

// Weight returns the node's load.
func (p *Node[K]) Weight() float64 { return p.node.Weight }

// ID returns the node's identity.
func (p *Node[K]) ID() uint64 { return p.node.ID }

// CanBisect reports whether the node is divisible: not a leaf and, for a
// LazyKernel, accepted by CanSplit.
func (p *Node[K]) CanBisect() bool {
	if p.node.Leaf {
		return false
	}
	// The first assertion keeps its result unused, so boxing the kernel
	// does not escape and a kernel that is not lazy costs no allocation.
	if _, lazy := any(p.kernel).(LazyKernel); !lazy {
		return true
	}
	return any(p.kernel).(LazyKernel).CanSplit(p.node)
}

// Bisect splits the node with its kernel, children in Split order.
func (p *Node[K]) Bisect() (Problem, Problem) {
	a, b := p.kernel.Split(p.node)
	return &Node[K]{node: a, kernel: p.kernel}, &Node[K]{node: b, kernel: p.kernel}
}

// Flat returns the node's flat form and the kernel that splits it.
func (p *Node[K]) Flat() (FlatNode, Kernel) { return p.node, p.kernel }

// FlatOf returns p's flat node and kernel when p is a kernel's Problem
// form (a Node), so it plans on a Planner with no Problem values at all;
// ok is false for every other Problem.
func FlatOf(p Problem) (n FlatNode, k Kernel, ok bool) {
	f, ok := p.(interface{ Flat() (FlatNode, Kernel) })
	if !ok {
		return FlatNode{}, nil, false
	}
	n, k = f.Flat()
	return n, k, true
}

// ValidateFlatRoot checks the preconditions the planner shares with
// ValidateRoot: a positive, finite root weight.
func ValidateFlatRoot(n FlatNode) error {
	if !(n.Weight > 0) || math.IsInf(n.Weight, 0) {
		return fmt.Errorf("%w (got %v)", ErrBadWeight, n.Weight)
	}
	return nil
}
