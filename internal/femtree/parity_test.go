package femtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"bisectlb/internal/xrand"
)

// oracleRegion is a region of the frozen map-based bisector: a root, the
// sorted roots of its cut-away subtrees, its weight and its ID.
type oracleRegion struct {
	root    int
	removed []int
	weight  float64
	id      uint64
}

func oracleID(t *Tree, root int, removed []int) uint64 {
	h := xrand.Mix(t.idSalt, uint64(root)+1)
	for _, v := range removed {
		h = xrand.Mix(h, uint64(v)+2)
	}
	return h
}

func oracleRemoved(r oracleRegion, v int) bool {
	i := sort.SearchInts(r.removed, v)
	return i < len(r.removed) && r.removed[i] == v
}

// oracleSize counts the region's nodes with a preorder walk.
func oracleSize(t *Tree, r oracleRegion) int {
	var rec func(v int) int
	rec = func(v int) int {
		if v < 0 || oracleRemoved(r, v) {
			return 0
		}
		return 1 + rec(t.Nodes[v].Left) + rec(t.Nodes[v].Right)
	}
	return rec(r.root)
}

// oracleBestCut is a frozen copy of the map-based BestCut: subtree weights
// in a map, scanned for the non-root node whose weight is closest to half
// the region's, the smaller node on ties.
func oracleBestCut(t *Tree, r oracleRegion) (int, float64, bool) {
	ws := make(map[int]float64)
	var rec func(v int) float64
	rec = func(v int) float64 {
		if v < 0 || oracleRemoved(r, v) {
			return 0
		}
		s := t.Nodes[v].Dofs + rec(t.Nodes[v].Left) + rec(t.Nodes[v].Right)
		ws[v] = s
		return s
	}
	rec(r.root)
	total := ws[r.root]
	best, bestGap := -1, 0.0
	for v, wv := range ws {
		if v == r.root {
			continue
		}
		gap := math.Abs(wv - total/2)
		if best == -1 || gap < bestGap || (gap == bestGap && v < best) {
			best, bestGap = v, gap
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, ws[best], true
}

// oracleBisect is a frozen copy of Region.Bisect over oracleBestCut.
func oracleBisect(t *Tree, r oracleRegion) (oracleRegion, oracleRegion) {
	cut, below, ok := oracleBestCut(t, r)
	if !ok {
		panic("oracle: bisecting a single-node region")
	}
	under := func(v int) bool {
		for ; v >= 0; v = t.Nodes[v].Parent {
			if v == cut {
				return true
			}
		}
		return false
	}
	var subRemoved, restRemoved []int
	for _, v := range r.removed {
		if under(v) {
			subRemoved = append(subRemoved, v)
		} else {
			restRemoved = append(restRemoved, v)
		}
	}
	restRemoved = append(restRemoved, cut)
	sort.Ints(restRemoved)
	sub := oracleRegion{root: cut, removed: subRemoved, weight: below, id: oracleID(t, cut, subRemoved)}
	rest := oracleRegion{root: r.root, removed: restRemoved, weight: r.weight - below, id: oracleID(t, r.root, restRemoved)}
	if sub.weight >= rest.weight {
		return sub, rest
	}
	return rest, sub
}

// sameRegion reports how got differs from the oracle's region, or "".
func sameRegion(t *Tree, got *Region, want oracleRegion) string {
	if got.Root() != want.root || !slices.Equal(got.removed, want.removed) {
		return fmt.Sprintf("region (%d, %v), oracle (%d, %v)", got.Root(), got.removed, want.root, want.removed)
	}
	if math.Float64bits(got.Weight()) != math.Float64bits(want.weight) {
		return fmt.Sprintf("weight %v, oracle %v", got.Weight(), want.weight)
	}
	if got.ID() != want.id {
		return fmt.Sprintf("ID %#x, oracle %#x", got.ID(), want.id)
	}
	if can := oracleSize(t, want) >= 2; got.CanBisect() != can {
		return fmt.Sprintf("CanBisect %v, oracle %v", got.CanBisect(), can)
	}
	if node, below, ok := got.BestCut(); ok {
		wn, wb, _ := oracleBestCut(t, want)
		if node != wn || math.Float64bits(below) != math.Float64bits(wb) {
			return fmt.Sprintf("BestCut (%d, %v), oracle (%d, %v)", node, below, wn, wb)
		}
	}
	return ""
}

// TestRegionBisectMatchesOracle walks regions heaviest-first to up to 1024
// parts over 120 seeds, default, unit-weight and small custom
// configurations, and compares every child's root, removed set, weight
// bits, ID, CanBisect and best cut, and the children's order, with the
// frozen bisector.
func TestRegionBisectMatchesOracle(t *testing.T) {
	const maxParts = 1024
	for seed := uint64(0); seed < 120; seed++ {
		cfg := DefaultGenConfig(seed)
		if seed%4 == 3 {
			cfg = GenConfig{MaxDepth: 2 + int(seed%7), MinDepth: 1, RefineBias: 0.8, Singularity: 0.6, BaseDofs: 3, Seed: seed}
		}
		tr := MustGenerate(cfg)
		if seed%4 == 1 {
			// Unit weights make equal gaps common, so the node tie-break
			// decides cuts.
			for i := range tr.Nodes {
				tr.Nodes[i].Dofs = 1
			}
			tr.computeSubtreeDofs()
		}
		got := []*Region{NewRegion(tr)}
		want := []oracleRegion{{root: tr.Root, weight: tr.TotalDofs(), id: oracleID(tr, tr.Root, nil)}}
		if d := sameRegion(tr, got[0], want[0]); d != "" {
			t.Fatalf("seed %d root: %s", seed, d)
		}
		for len(got) < maxParts {
			best := -1
			for i, w := range want {
				if oracleSize(tr, w) >= 2 && (best == -1 || w.weight > want[best].weight) {
					best = i
				}
			}
			if best == -1 {
				break
			}
			g1, g2 := got[best].Bisect()
			w1, w2 := oracleBisect(tr, want[best])
			for _, c := range []struct {
				got  *Region
				want oracleRegion
			}{{g1.(*Region), w1}, {g2.(*Region), w2}} {
				if d := sameRegion(tr, c.got, c.want); d != "" {
					t.Fatalf("seed %d part %d: bisecting (%d, %v): %s", seed, len(got), want[best].root, want[best].removed, d)
				}
			}
			got[best], want[best] = g1.(*Region), w1
			got, want = append(got, g2.(*Region)), append(want, w2)
		}
	}
}

// oracleGenerate is a frozen copy of the closure-recursive generator: it
// appends nodes in preorder, drawing each node's weight and then its
// refinement decision before building the left and then the right
// subtree.
func oracleGenerate(cfg GenConfig) *Tree {
	t := &Tree{idSalt: xrand.Mix(cfg.Seed, 0xfe3)}
	rng := xrand.New(cfg.Seed)
	var build func(depth int, span [2]float64, parent int) int
	build = func(depth int, span [2]float64, parent int) int {
		id := len(t.Nodes)
		dofs := cfg.BaseDofs * (0.5 + rng.Float64())
		t.Nodes = append(t.Nodes, TreeNode{
			Parent: parent, Left: -1, Right: -1,
			Dofs: dofs, Depth: depth,
		})
		if depth < cfg.MaxDepth {
			refine := depth < cfg.MinDepth
			if !refine {
				center := (span[0] + span[1]) / 2
				dist := math.Abs(center - cfg.Singularity)
				p := cfg.RefineBias * math.Pow(1-dist, 2) * math.Pow(0.97, float64(depth))
				refine = rng.Float64() < p
			}
			if refine {
				mid := (span[0] + span[1]) / 2
				left := build(depth+1, [2]float64{span[0], mid}, id)
				right := build(depth+1, [2]float64{mid, span[1]}, id)
				t.Nodes[id].Left = left
				t.Nodes[id].Right = right
			}
		}
		return id
	}
	t.Root = build(0, [2]float64{0, 1}, -1)
	t.subtreeDofs = make([]float64, len(t.Nodes))
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
	return t
}

// TestGenerateMatchesOracle compares Generate with the frozen generator
// over 200 seeds of the default configuration and of shallow, unforced
// and far-singularity variants: the root, the salt and every node's
// links, weight bits, depth and subtree weight bits.
func TestGenerateMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		cfg := DefaultGenConfig(seed)
		switch seed % 4 {
		case 1:
			cfg = GenConfig{MaxDepth: 2 + int(seed%7), MinDepth: 1, RefineBias: 0.8, Singularity: 0.6, BaseDofs: 3, Seed: seed}
		case 2:
			cfg.MinDepth, cfg.MaxDepth, cfg.RefineBias = 0, 20, 1
		case 3:
			cfg.Singularity, cfg.BaseDofs = 1, 0.25
		}
		got, want := MustGenerate(cfg), oracleGenerate(cfg)
		if got.Root != want.Root || got.idSalt != want.idSalt || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("seed %d: root/salt/size %d/%#x/%d, oracle %d/%#x/%d", seed,
				got.Root, got.idSalt, len(got.Nodes), want.Root, want.idSalt, len(want.Nodes))
		}
		if len(got.subtreeDofs) != len(want.subtreeDofs) {
			t.Fatalf("seed %d: %d subtree weights, oracle %d", seed, len(got.subtreeDofs), len(want.subtreeDofs))
		}
		for i, g := range got.Nodes {
			w := want.Nodes[i]
			if g.Parent != w.Parent || g.Left != w.Left || g.Right != w.Right || g.Depth != w.Depth ||
				math.Float64bits(g.Dofs) != math.Float64bits(w.Dofs) ||
				math.Float64bits(got.subtreeDofs[i]) != math.Float64bits(want.subtreeDofs[i]) {
				t.Fatalf("seed %d node %d: %+v subtree %v, oracle %+v subtree %v", seed, i, g, got.subtreeDofs[i], w, want.subtreeDofs[i])
			}
		}
	}
}
