package bisect

import (
	"fmt"

	"bisectlb/internal/xrand"
)

// Synthetic is the paper's stochastic model (Section 4): every bisection
// draws an actual bisection parameter α̂ uniformly at random from [Lo, Hi]
// with 0 < Lo ≤ Hi ≤ 1/2, independently and identically distributed across
// bisections. The light child receives α̂·w, the heavy child (1−α̂)·w.
//
// Determinism: the draw for a node depends only on the node's seed, and the
// children's seeds are derived from the parent seed. Two algorithms that
// bisect the same node therefore observe the same split, which is exactly
// the property the paper's "PHF computes the same partitioning as HF"
// theorem needs in an executable setting.
type Synthetic = Node[SyntheticKernel]

// NewSynthetic creates the root of a synthetic problem with total weight w
// and per-bisection parameter α̂ ~ U[lo, hi]. It returns an error for an
// invalid weight or an interval outside 0 < lo ≤ hi ≤ 1/2.
func NewSynthetic(w float64, lo, hi float64, seed uint64) (*Synthetic, error) {
	if !(w > 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadWeight, w)
	}
	if !(lo > 0) || hi < lo || hi > 0.5 {
		return nil, fmt.Errorf("bisect: invalid α̂ interval [%v, %v]; need 0 < lo ≤ hi ≤ 1/2", lo, hi)
	}
	return &Synthetic{node: SyntheticFlatRoot(w, seed), kernel: SyntheticKernel{Lo: lo, Hi: hi}}, nil
}

// MustSynthetic is NewSynthetic that panics on error, for tests and examples.
func MustSynthetic(w float64, lo, hi float64, seed uint64) *Synthetic {
	p, err := NewSynthetic(w, lo, hi, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// RehydrateSynthetic reconstructs an interior node of a synthetic
// bisection tree from its serialised fields (weight, interval, seed,
// depth). It exists for transports that ship subproblems between
// processes (internal/dist): a rehydrated node bisects exactly like the
// original, because splits depend only on the seed.
func RehydrateSynthetic(w, lo, hi float64, seed uint64, depth int) (*Synthetic, error) {
	p, err := NewSynthetic(w, lo, hi, seed)
	if err != nil {
		return nil, err
	}
	if depth < 0 {
		return nil, fmt.Errorf("bisect: negative depth %d", depth)
	}
	p.node.Depth = int32(depth)
	return p, nil
}

// SyntheticKernel splits the synthetic stochastic model: every bisection
// draws α̂ ~ U[Lo, Hi] from the node's seed stream and splits the weight
// into (1−α̂)·w and α̂·w. State: S0 is the node seed, which is also its ID.
type SyntheticKernel struct {
	Lo, Hi float64
}

// SyntheticFlatRoot returns the flat root node of
// NewSynthetic(w, lo, hi, seed).
func SyntheticFlatRoot(w float64, seed uint64) FlatNode {
	return FlatNode{Weight: w, ID: seed, S0: seed}
}

// Split draws α̂ from the node's seed and returns the heavy child first;
// the children's seeds mix the parent's.
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

// Fixed is a problem whose every bisection splits exactly (1−α)·w and α·w.
// It realises the adversarial structure behind the worst-case analyses: all
// the imbalance the class permits, at every level.
type Fixed = Node[FixedKernel]

// NewFixed creates a root problem of weight w that always splits with the
// exact parameter alpha ∈ (0, 1/2].
func NewFixed(w, alpha float64) (*Fixed, error) {
	if !(w > 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadWeight, w)
	}
	if !(alpha > 0) || alpha > 0.5 {
		return nil, fmt.Errorf("bisect: invalid fixed α %v; need 0 < α ≤ 1/2", alpha)
	}
	return &Fixed{node: FixedFlatRoot(w), kernel: FixedKernel{Alpha: alpha}}, nil
}

// MustFixed is NewFixed that panics on error.
func MustFixed(w, alpha float64) *Fixed {
	p, err := NewFixed(w, alpha)
	if err != nil {
		panic(err)
	}
	return p
}

// FixedKernel splits the fixed adversarial class: every bisection splits
// exactly into (1−α)·w and α·w. State: none beyond the ID, which is 1 at
// the root and Mix(id, 1)/Mix(id, 2) below it, the derivation the
// synthetic class uses. An earlier implicit-binary-tree numbering (root
// 1, children 2i and 2i+1) overflowed uint64 at bisection depth 63 and
// produced duplicate IDs — reachable with small α and large N, where
// HF's heavy chain exceeds 63 bisections (found by the verify sweep;
// regression-pinned in bisect_test.go).
type FixedKernel struct {
	Alpha float64
}

// FixedFlatRoot returns the flat root node of NewFixed(w, alpha).
func FixedFlatRoot(w float64) FlatNode {
	return FlatNode{Weight: w, ID: 1}
}

// Split returns the (1−α)·w child first and the α·w child second.
func (k FixedKernel) Split(n FlatNode) (heavy, light FlatNode) {
	heavyW := (1 - k.Alpha) * n.Weight
	heavy = FlatNode{Weight: heavyW, ID: xrand.Mix(n.ID, 1), Depth: n.Depth + 1}
	light = FlatNode{Weight: n.Weight - heavyW, ID: xrand.Mix(n.ID, 2), Depth: n.Depth + 1}
	return heavy, light
}
