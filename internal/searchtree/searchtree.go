// Package searchtree provides the backtrack-search / branch-and-bound
// substrate the paper cites as an application domain (ref [9], Karp &
// Zhang, "Randomized parallel algorithms for backtrack search and
// branch-and-bound computation").
//
// A synthetic search tree stands in for the implicit tree a solver would
// explore. A load-balancing problem is a *frontier*: a set of open search
// nodes whose subtrees remain to be explored. Its weight is the number of
// descendant leaves (the candidate evaluations left), which is exactly
// additive under any partition of the frontier. Bisecting a frontier
// splits it into two frontiers of near-equal estimated work using a
// longest-processing-time greedy partition; single-node frontiers are first
// expanded into their children, mirroring how work splitting actually
// proceeds in parallel backtrack search.
package searchtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// Node is one node of the synthetic search tree. Its children are
// Tree.Children of its index.
type Node struct {
	// Leaves is the number of leaves in the node's subtree (≥ 1).
	Leaves int64
	// first and count locate the node's children in Tree.kids.
	first, count int32
}

// Tree is an immutable synthetic search tree. Nodes are numbered in
// preorder, so every child has a larger index than its parent and a
// node's children are in ascending order.
type Tree struct {
	Nodes  []Node
	Root   int
	kids   []int32 // all child lists, concatenated
	idSalt uint64
}

// Children returns node v's children. The slice aliases the tree and
// must not be modified.
func (t *Tree) Children(v int) []int32 {
	n := &t.Nodes[v]
	return t.kids[n.first : n.first+n.count : n.first+n.count]
}

// GenConfig controls search-tree generation: a depth-capped Galton–Watson
// process with depth-decaying branching, which produces the irregular,
// heavy-tailed subtree sizes typical of pruned backtrack search.
type GenConfig struct {
	// MaxDepth caps the tree height. Must be ≥ 1.
	MaxDepth int
	// MaxBranch is the largest number of children a node may have, in
	// [2, math.MaxInt32].
	MaxBranch int
	// ExpandProb is the probability that a node has children at all,
	// before depth decay. Must be in (0, 1].
	ExpandProb float64
	// Seed drives generation deterministically.
	Seed uint64
}

// DefaultGenConfig returns a configuration yielding trees of a few
// thousand nodes with strong imbalance.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{MaxDepth: 18, MaxBranch: 4, ExpandProb: 0.9, Seed: seed}
}

// genScratch holds the arrays a tree is built in. Trees of one
// configuration end at similar sizes, so a pooled scratch has grown to fit
// after a few trees and Generate then only copies the finished arrays.
type genScratch struct {
	nodes []Node
	kids  []int32
	stack []pending
}

// pending is a node on Generate's stack: its depth and the parent's child
// slot that receives its index (-1 for the root).
type pending struct{ depth, slot int }

var genPool = sync.Pool{New: func() any { return new(genScratch) }}

// Generate builds a synthetic search tree. The root is always expanded so
// the tree never consists of a single node.
func Generate(cfg GenConfig) (*Tree, error) {
	if cfg.MaxDepth < 1 {
		return nil, fmt.Errorf("searchtree: MaxDepth %d must be ≥ 1", cfg.MaxDepth)
	}
	// Node.count and the child slots are int32.
	if cfg.MaxBranch < 2 || cfg.MaxBranch > math.MaxInt32 {
		return nil, fmt.Errorf("searchtree: MaxBranch %d outside [2, %d]", cfg.MaxBranch, math.MaxInt32)
	}
	if !(cfg.ExpandProb > 0) || cfg.ExpandProb > 1 {
		return nil, fmt.Errorf("searchtree: ExpandProb %v outside (0, 1]", cfg.ExpandProb)
	}
	s := genPool.Get().(*genScratch)
	nodes, kids := s.nodes[:0], s.kids[:0]
	rng := xrand.New(cfg.Seed)
	// Preorder construction with an explicit stack of pending children.
	// A node draws its expansion and branching factor when it is created
	// and reserves its child slots; its children are then built first to
	// last, each with its whole subtree, so the RNG is consumed in the
	// order of a depth-first recursion.
	stack := append(s.stack[:0], pending{slot: -1})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := len(nodes)
		if top.slot >= 0 {
			kids[top.slot] = int32(id)
		}
		var n Node
		expand := top.depth == 0 // force a branching root
		if !expand && top.depth < cfg.MaxDepth {
			p := cfg.ExpandProb * (1 - float64(top.depth)/float64(cfg.MaxDepth+1))
			expand = rng.Float64() < p
		}
		if expand {
			k := 2 + rng.Intn(cfg.MaxBranch-1)
			n.first, n.count = int32(len(kids)), int32(k)
			// Every reserved slot is written before it is read. Growing
			// with slices.Grow instead of append(make) keeps generation
			// allocation-free per node under -race as well, where the
			// compiler no longer elides the make.
			kids = slices.Grow(kids, k)[:len(kids)+k]
			for c := k - 1; c >= 0; c-- {
				stack = append(stack, pending{depth: top.depth + 1, slot: int(n.first) + c})
			}
		}
		nodes = append(nodes, n)
	}
	// Bottom-up leaf counts: children have larger indices.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		if n.count == 0 {
			n.Leaves = 1
			continue
		}
		var sum int64
		for _, c := range kids[n.first : n.first+n.count] {
			sum += nodes[c].Leaves
		}
		n.Leaves = sum
	}
	// The tree gets exact-size copies; the scratch keeps its capacity.
	t := &Tree{Nodes: slices.Clone(nodes), kids: slices.Clone(kids), idSalt: xrand.Mix(cfg.Seed, 0x5ea)}
	s.nodes, s.kids, s.stack = nodes, kids, stack
	genPool.Put(s)
	return t, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg GenConfig) *Tree {
	t, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return len(t.Nodes) }

// TotalLeaves returns the root's leaf count.
func (t *Tree) TotalLeaves() int64 { return t.Nodes[t.Root].Leaves }

// Frontier is a set of open search nodes, the unit of load distribution.
// Frontiers are immutable; identity derives from the (sorted) node set.
type Frontier struct {
	tree   *Tree
	nodes  []int // sorted, disjoint subtrees
	weight float64
	id     uint64
}

var _ bisect.Problem = (*Frontier)(nil)

// NewFrontier returns the root frontier {root}.
func NewFrontier(t *Tree) *Frontier {
	f := &Frontier{tree: t, nodes: []int{t.Root}}
	f.finish()
	return f
}

func (f *Frontier) finish() {
	var w int64
	for _, v := range f.nodes {
		w += f.tree.Nodes[v].Leaves
	}
	f.weight = float64(w)
	h := f.tree.idSalt
	for _, v := range f.nodes {
		h = xrand.Mix(h, uint64(v)+1)
	}
	f.id = h
}

// Weight returns the number of unexplored leaves under the frontier.
func (f *Frontier) Weight() float64 { return f.weight }

// ID returns the content-derived identifier.
func (f *Frontier) ID() uint64 { return f.id }

// Nodes returns a copy of the frontier's node set.
func (f *Frontier) Nodes() []int { return append([]int(nil), f.nodes...) }

// CanBisect reports whether the frontier covers at least two leaves.
func (f *Frontier) CanBisect() bool { return f.weight >= 2 }

// Bisect splits the frontier into two frontiers of near-equal leaf counts
// via a deterministic longest-processing-time greedy assignment. A
// single-node frontier is first expanded into its children. The heavier
// frontier is returned first.
func (f *Frontier) Bisect() (bisect.Problem, bisect.Problem) {
	if !f.CanBisect() {
		panic("searchtree: Bisect on exhausted frontier")
	}
	nodes := f.tree.Nodes
	var kids []int32
	m := len(f.nodes)
	if m == 1 {
		// Weight ≥ 2, so the node has at least two children.
		kids = f.tree.Children(f.nodes[0])
		m = len(kids)
	}
	// One backing array: the LPT order in the back half; bin A fills the
	// front half from its start and bin B from its end, so neither
	// overwrites the order it is read from.
	buf := make([]int, 2*m)
	order := buf[m:]
	if kids != nil {
		for i, c := range kids {
			order[i] = int(c)
		}
	} else {
		copy(order, f.nodes)
	}
	// Subtree size descending, node ascending on ties: a strict total
	// order, so the sorted order does not depend on the sort algorithm.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(nodes[b].Leaves, nodes[a].Leaves); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	na, nb := 0, m
	var wA, wB int64
	for _, v := range order {
		l := nodes[v].Leaves
		// Assign to the lighter bin; ties to A. Both bins end non-empty:
		// the first node goes to A and the second necessarily to B.
		if wA <= wB {
			buf[na] = v
			na++
			wA += l
		} else {
			nb--
			buf[nb] = v
			wB += l
		}
	}
	setA, setB := buf[:na:na], buf[na:m:m]
	slices.Sort(setA)
	slices.Sort(setB)
	pair := &[2]Frontier{{tree: f.tree, nodes: setA}, {tree: f.tree, nodes: setB}}
	a, b := &pair[0], &pair[1]
	a.finish()
	b.finish()
	if a.weight >= b.weight {
		return a, b
	}
	return b, a
}

// ProbeAlpha expands the frontier heaviest-first into up to maxParts pieces
// and returns the smallest split fraction observed, an empirical α estimate
// for declaring to PHF or BA-HF.
func ProbeAlpha(f *Frontier, maxParts int) float64 {
	if maxParts < 2 || !f.CanBisect() {
		return 0.5
	}
	worst := 0.5
	pool := []*Frontier{f}
	for len(pool) < maxParts {
		best := -1
		for i, q := range pool {
			if q.CanBisect() && (best == -1 || q.weight > pool[best].weight) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		q := pool[best]
		a, b := q.Bisect()
		if frac := b.Weight() / q.Weight(); frac < worst {
			worst = frac
		}
		pool[best] = a.(*Frontier)
		pool = append(pool, b.(*Frontier))
	}
	return worst
}
