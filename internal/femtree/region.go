package femtree

import (
	"sort"
	"sync"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// Region is a connected piece of an FE-tree: the subtree rooted at Root
// minus the subtrees rooted at the removed nodes. Regions are the problems
// handed to the load-balancing algorithms; bisecting a region cuts one tree
// edge, exactly the FE-tree bisection of the paper's motivating system.
//
// Region is immutable; Bisect returns two fresh regions. Its identity (ID)
// is derived from the region's content — root and removed set — not from
// creation order, so different algorithms bisecting the same region obtain
// interchangeable problems, which the PHF ≡ HF identity tests require.
type Region struct {
	tree    *Tree
	root    int
	removed []int // sorted node indices whose subtrees are cut away
	weight  float64
	id      uint64
}

var _ bisect.Problem = (*Region)(nil)

// NewRegion returns the region covering the entire tree.
func NewRegion(t *Tree) *Region {
	r := &Region{tree: t, root: t.Root, weight: t.TotalDofs()}
	r.id = r.computeID()
	return r
}

func (r *Region) computeID() uint64 {
	h := xrand.Mix(r.tree.idSalt, uint64(r.root)+1)
	for _, v := range r.removed {
		h = xrand.Mix(h, uint64(v)+2)
	}
	return h
}

// Weight returns the sum of Dofs over the region's nodes.
func (r *Region) Weight() float64 { return r.weight }

// ID returns the content-derived identifier.
func (r *Region) ID() uint64 { return r.id }

// Tree returns the underlying FE-tree.
func (r *Region) Tree() *Tree { return r.tree }

// Root returns the region's root node index.
func (r *Region) Root() int { return r.root }

// isRemoved reports whether node v is the root of a cut-away subtree.
func (r *Region) isRemoved(v int) bool {
	i := sort.SearchInts(r.removed, v)
	return i < len(r.removed) && r.removed[i] == v
}

// Nodes visits every node in the region in preorder.
func (r *Region) Nodes(visit func(v int)) {
	var rec func(v int)
	rec = func(v int) {
		if v < 0 || r.isRemoved(v) {
			return
		}
		visit(v)
		rec(r.tree.Nodes[v].Left)
		rec(r.tree.Nodes[v].Right)
	}
	rec(r.root)
}

// Size returns the number of nodes in the region.
func (r *Region) Size() int {
	n := 0
	r.Nodes(func(int) { n++ })
	return n
}

// CanBisect reports whether the region has an edge to cut: whether a
// child of its root is still in the region. FE-tree nodes have no child
// or two, and the root itself is never removed, so this is Size() ≥ 2.
func (r *Region) CanBisect() bool {
	n := &r.tree.Nodes[r.root]
	return (n.Left >= 0 && !r.isRemoved(n.Left)) || (n.Right >= 0 && !r.isRemoved(n.Right))
}

// nodeWeight is a region node with the weight of the region part below
// and including it.
type nodeWeight struct {
	node   int
	weight float64
}

// weightsPool holds subWeights' buffers; a region's pairs are needed only
// while BestCut scans them.
var weightsPool = sync.Pool{New: func() any { return new([]nodeWeight) }}

// subWeights appends to ws, for every node v in the region in postorder,
// the weight of the region part below and including v, and returns the
// extended slice. The region's root comes last.
func (r *Region) subWeights(ws []nodeWeight, v int) ([]nodeWeight, float64) {
	if v < 0 || r.isRemoved(v) {
		return ws, 0
	}
	n := &r.tree.Nodes[v]
	ws, left := r.subWeights(ws, n.Left)
	ws, right := r.subWeights(ws, n.Right)
	s := n.Dofs + left + right
	return append(ws, nodeWeight{v, s}), s
}

// BestCut returns the non-root region node whose subtree split is closest
// to half the region weight (deterministic tie-break on the node index),
// along with the weight below it. The boolean is false if the region has no
// cuttable edge.
func (r *Region) BestCut() (node int, below float64, ok bool) {
	buf := weightsPool.Get().(*[]nodeWeight)
	ws, total := r.subWeights((*buf)[:0], r.root)
	best := -1
	bestGap := 0.0
	for _, nw := range ws[:len(ws)-1] { // all but the root
		gap := nw.weight - total/2
		if gap < 0 {
			gap = -gap
		}
		if best == -1 || gap < bestGap || (gap == bestGap && nw.node < best) {
			best, bestGap, below = nw.node, gap, nw.weight
		}
	}
	*buf = ws
	weightsPool.Put(buf)
	if best == -1 {
		return 0, 0, false
	}
	return best, below, true
}

// Bisect cuts the best-balancing edge: the returned problems are the
// subtree below the cut node and the remainder of the region. The heavier
// part comes first. Bisect panics if CanBisect is false.
func (r *Region) Bisect() (bisect.Problem, bisect.Problem) {
	cut, below, ok := r.BestCut()
	if !ok {
		panic("femtree: Bisect on single-node region")
	}
	sub := &Region{tree: r.tree, root: cut, weight: below}
	// Only removed descendants of cut belong to the new subregion; the
	// rest stay with the remainder. A removed node is a descendant of cut
	// iff cut lies on its path to the region root.
	var subRemoved, restRemoved []int
	for _, v := range r.removed {
		if r.hasAncestor(v, cut) {
			subRemoved = append(subRemoved, v)
		} else {
			restRemoved = append(restRemoved, v)
		}
	}
	sub.removed = subRemoved
	sub.id = sub.computeID()

	rest := &Region{tree: r.tree, root: r.root, weight: r.weight - below}
	rest.removed = insertSorted(restRemoved, cut)
	rest.id = rest.computeID()

	if sub.weight >= rest.weight {
		return sub, rest
	}
	return rest, sub
}

// hasAncestor reports whether anc is a proper or improper ancestor of v.
func (r *Region) hasAncestor(v, anc int) bool {
	for v >= 0 {
		if v == anc {
			return true
		}
		v = r.tree.Nodes[v].Parent
	}
	return false
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// ProbeAlpha expands the region heaviest-first into up to maxParts pieces
// and returns the smallest split fraction min(w1, w2)/w observed — an
// empirical lower estimate of the α the tree's bisector achieves. FE-trees
// give no a-priori α guarantee (a star-shaped tree cannot be balanced), so
// applications probe before choosing the α to declare to PHF or BA-HF.
func ProbeAlpha(r *Region, maxParts int) float64 {
	if maxParts < 2 || !r.CanBisect() {
		return 0.5
	}
	worst := 0.5
	pool := []*Region{r}
	for len(pool) < maxParts {
		// Find the heaviest divisible region.
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
		frac := b.Weight() / q.Weight()
		if frac < worst {
			worst = frac
		}
		pool[best] = a.(*Region)
		pool = append(pool, b.(*Region))
	}
	return worst
}
