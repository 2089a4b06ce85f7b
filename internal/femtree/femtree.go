// Package femtree provides the finite-element substrate that motivated the
// paper: unbalanced binary trees produced by adaptive recursive
// substructuring ("FE-trees", refs [1, 6, 7] of the paper), plus a
// weight-balancing tree bisector so that FE-tree regions participate in the
// load-balancing framework as bisect.Problem values.
//
// Substitution note (DESIGN.md §4): the original system derived FE-trees
// from a hierarchical FEM solver; this package generates synthetic FE-trees
// whose shape is controlled by an adaptive-refinement model with a movable
// singularity. The load-balancing layer only ever observes weights and
// bisections, so the synthetic trees exercise exactly the same code paths.
package femtree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bisectlb/internal/xrand"
)

// TreeNode is one node of an FE-tree. Indices refer into Tree.Nodes; -1
// denotes absence.
type TreeNode struct {
	Parent, Left, Right int
	// Dofs is the computational weight attached to the node (degrees of
	// freedom of the substructure interface).
	Dofs float64
	// Depth is the node's distance from the FE-tree root.
	Depth int
}

// Tree is an immutable FE-tree. Many Region problems share one Tree.
type Tree struct {
	Nodes []TreeNode
	Root  int
	// subtreeDofs[i] caches the total weight of the subtree rooted at i.
	subtreeDofs []float64
	// idSalt distinguishes regions of different trees in problem IDs.
	idSalt uint64
}

// genScratch holds the arrays a tree is built in. Trees of one
// configuration end at similar sizes, so a pooled scratch has grown to fit
// after a few trees and Generate then only copies the finished nodes.
type genScratch struct {
	nodes []TreeNode
	stack []pendingNode
	decay []float64 // decay[d] = 0.97^d, the refinement decay at depth d
}

// pendingNode is a node on Generate's stack: its depth, its share of the
// domain, and its parent with the side it hangs on (parent -1 for the
// root).
type pendingNode struct {
	depth  int
	span   [2]float64
	parent int
	right  bool
}

var genPool = sync.Pool{New: func() any { return new(genScratch) }}

// GenConfig controls synthetic FE-tree generation.
type GenConfig struct {
	// MaxDepth caps refinement depth (tree height). Must be ≥ 1.
	MaxDepth int
	// MinDepth forces refinement for the first MinDepth levels so a tree
	// never degenerates to a single node.
	MinDepth int
	// RefineBias ∈ (0, 1] scales the refinement probability.
	RefineBias float64
	// Singularity ∈ [0, 1] is the domain location that attracts
	// refinement, modelling a corner singularity of the PDE solution.
	Singularity float64
	// BaseDofs is the mean per-node weight. Must be positive.
	BaseDofs float64
	// Seed drives the generator deterministically.
	Seed uint64
}

// DefaultGenConfig returns a configuration producing trees of a few
// thousand nodes with pronounced depth imbalance.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{
		MaxDepth:    16,
		MinDepth:    4,
		RefineBias:  0.92,
		Singularity: 0.23,
		BaseDofs:    10,
		Seed:        seed,
	}
}

// Generate builds a synthetic FE-tree. It returns an error for nonsensical
// configurations.
func Generate(cfg GenConfig) (*Tree, error) {
	if cfg.MaxDepth < 1 {
		return nil, fmt.Errorf("femtree: MaxDepth %d must be ≥ 1", cfg.MaxDepth)
	}
	if cfg.MinDepth < 0 || cfg.MinDepth > cfg.MaxDepth {
		return nil, fmt.Errorf("femtree: MinDepth %d outside [0, %d]", cfg.MinDepth, cfg.MaxDepth)
	}
	if !(cfg.RefineBias > 0) || cfg.RefineBias > 1 {
		return nil, fmt.Errorf("femtree: RefineBias %v outside (0, 1]", cfg.RefineBias)
	}
	if !(cfg.BaseDofs > 0) {
		return nil, fmt.Errorf("femtree: BaseDofs %v must be positive", cfg.BaseDofs)
	}
	s := genPool.Get().(*genScratch)
	nodes, decay := s.nodes[:0], s.decay
	rng := xrand.New(cfg.Seed)
	// Preorder construction with an explicit stack of pending nodes. A
	// node draws its weight and then its refinement decision when it is
	// created; its left subtree is then built whole before its right, so
	// the RNG is consumed in the order of a depth-first recursion.
	stack := append(s.stack[:0], pendingNode{span: [2]float64{0, 1}, parent: -1})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := len(nodes)
		if top.parent >= 0 {
			if top.right {
				nodes[top.parent].Right = id
			} else {
				nodes[top.parent].Left = id
			}
		}
		dofs := cfg.BaseDofs * (0.5 + rng.Float64())
		nodes = append(nodes, TreeNode{
			Parent: top.parent, Left: -1, Right: -1,
			Dofs: dofs, Depth: top.depth,
		})
		if top.depth < cfg.MaxDepth {
			span := top.span
			refine := top.depth < cfg.MinDepth
			if !refine {
				center := (span[0] + span[1]) / 2
				dist := math.Abs(center - cfg.Singularity)
				// Refinement probability decays with distance from the
				// singularity and with depth, yielding the unbalanced
				// trees typical of adaptive substructuring.
				for len(decay) <= top.depth {
					decay = append(decay, math.Pow(0.97, float64(len(decay))))
				}
				p := cfg.RefineBias * math.Pow(1-dist, 2) * decay[top.depth]
				refine = rng.Float64() < p
			}
			if refine {
				mid := (span[0] + span[1]) / 2
				stack = append(stack,
					pendingNode{depth: top.depth + 1, span: [2]float64{mid, span[1]}, parent: id, right: true},
					pendingNode{depth: top.depth + 1, span: [2]float64{span[0], mid}, parent: id})
			}
		}
	}
	// The tree gets exact-size copies; the scratch keeps its capacity.
	t := &Tree{Nodes: slices.Clone(nodes), idSalt: xrand.Mix(cfg.Seed, 0xfe3)}
	t.computeSubtreeDofs()
	s.nodes, s.stack, s.decay = nodes, stack, decay
	genPool.Put(s)
	return t, nil
}

// MustGenerate is Generate that panics on error, for tests and examples.
func MustGenerate(cfg GenConfig) *Tree {
	t, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) computeSubtreeDofs() {
	t.subtreeDofs = make([]float64, len(t.Nodes))
	// Nodes were appended in preorder, so children always have larger
	// indices than their parent; a reverse sweep accumulates bottom-up.
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		sum := t.Nodes[i].Dofs
		if l := t.Nodes[i].Left; l >= 0 {
			sum += t.subtreeDofs[l]
		}
		if r := t.Nodes[i].Right; r >= 0 {
			sum += t.subtreeDofs[r]
		}
		t.subtreeDofs[i] = sum
	}
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// TotalDofs returns the whole tree's weight.
func (t *Tree) TotalDofs() float64 { return t.subtreeDofs[t.Root] }

// MaxDepth returns the height of the tree.
func (t *Tree) MaxDepth() int {
	d := 0
	for _, n := range t.Nodes {
		if n.Depth > d {
			d = n.Depth
		}
	}
	return d
}
