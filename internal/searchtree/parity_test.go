package searchtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"bisectlb/internal/xrand"
)

// oracleNode and oracleGenerate are a frozen copy of the recursive
// generator with one children slice per node. Generate must build the same
// tree from the same configuration.
type oracleNode struct {
	Parent   int
	Children []int
	Depth    int
	Leaves   int64
}

func oracleGenerate(cfg GenConfig) []oracleNode {
	var nodes []oracleNode
	rng := xrand.New(cfg.Seed)
	var build func(depth, parent int) int
	build = func(depth, parent int) int {
		id := len(nodes)
		nodes = append(nodes, oracleNode{Parent: parent, Depth: depth})
		expand := depth == 0
		if !expand && depth < cfg.MaxDepth {
			p := cfg.ExpandProb * (1 - float64(depth)/float64(cfg.MaxDepth+1))
			expand = rng.Float64() < p
		}
		if expand {
			k := 2 + rng.Intn(cfg.MaxBranch-1)
			for c := 0; c < k; c++ {
				child := build(depth+1, id)
				nodes[id].Children = append(nodes[id].Children, child)
			}
		}
		return id
	}
	build(0, -1)
	for i := len(nodes) - 1; i >= 0; i-- {
		if len(nodes[i].Children) == 0 {
			nodes[i].Leaves = 1
			continue
		}
		var sum int64
		for _, c := range nodes[i].Children {
			sum += nodes[c].Leaves
		}
		nodes[i].Leaves = sum
	}
	return nodes
}

// oracleEstimateLeaves is the Knuth estimator over the oracle's nodes.
func oracleEstimateLeaves(nodes []oracleNode, v, probes int, seed uint64) float64 {
	rng := xrand.New(xrand.Mix(seed, uint64(v)+0x517cc1b7))
	total := 0.0
	for p := 0; p < probes; p++ {
		weight := 1.0
		cur := v
		for {
			children := nodes[cur].Children
			if len(children) == 0 {
				break
			}
			weight *= float64(len(children))
			cur = children[rng.Intn(len(children))]
		}
		total += weight
	}
	return total / float64(probes)
}

// TestGenerateMatchesOracle compares every node's parent, depth, leaf count
// and children with the oracle over 200 seeds, and the Knuth estimator bit
// for bit on sampled nodes.
func TestGenerateMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		cfg := DefaultGenConfig(seed)
		if seed%4 == 3 {
			cfg = GenConfig{MaxDepth: 1 + int(seed%9), MaxBranch: 2 + int(seed%5), ExpandProb: 1, Seed: seed}
		}
		want := oracleGenerate(cfg)
		tr := MustGenerate(cfg)
		if tr.Size() != len(want) || tr.Root != 0 {
			t.Fatalf("seed %d: %d nodes rooted at %d, oracle %d rooted at 0", seed, tr.Size(), tr.Root, len(want))
		}
		parent, depth := parentsAndDepths(tr)
		for i, w := range want {
			n := tr.Nodes[i]
			if parent[i] != w.Parent || depth[i] != w.Depth || n.Leaves != w.Leaves {
				t.Fatalf("seed %d node %d: (parent %d, depth %d, leaves %d), oracle (%d, %d, %d)",
					seed, i, parent[i], depth[i], n.Leaves, w.Parent, w.Depth, w.Leaves)
			}
			got := childrenOf(tr, i)
			if len(got) != len(w.Children) {
				t.Fatalf("seed %d node %d: children %v, oracle %v", seed, i, got, w.Children)
			}
			for j := range got {
				if got[j] != w.Children[j] {
					t.Fatalf("seed %d node %d: children %v, oracle %v", seed, i, got, w.Children)
				}
			}
		}
		for v := int(seed % 7); v < len(want); v += 97 {
			got, err := EstimateLeaves(tr, v, 16, seed)
			if err != nil {
				t.Fatal(err)
			}
			if w := oracleEstimateLeaves(want, v, 16, seed); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("seed %d node %d: EstimateLeaves %v, oracle %v", seed, v, got, w)
			}
		}
	}
}

// parentsAndDepths derives every node's parent (-1 for the root) and
// depth by walking Children from the root, to compare with the oracle.
func parentsAndDepths(t *Tree) (parent, depth []int) {
	parent, depth = make([]int, t.Size()), make([]int, t.Size())
	for i := range parent {
		parent[i] = -2 // unreached
	}
	parent[t.Root] = -1
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Children(v) {
			parent[c], depth[c] = v, depth[v]+1
			stack = append(stack, int(c))
		}
	}
	return parent, depth
}

// childrenOf returns node v's children as ints.
func childrenOf(t *Tree, v int) []int {
	var out []int
	for _, c := range t.Children(v) {
		out = append(out, int(c))
	}
	return out
}

// oracleFrontier is a frontier of the frozen LPT bisector: a sorted node
// set over the oracle's nodes, with its weight and ID.
type oracleFrontier struct {
	nodes  []int
	weight float64
	id     uint64
}

func oracleFinish(nodes []oracleNode, salt uint64, set []int) oracleFrontier {
	var w int64
	for _, v := range set {
		w += nodes[v].Leaves
	}
	h := salt
	for _, v := range set {
		h = xrand.Mix(h, uint64(v)+1)
	}
	return oracleFrontier{nodes: set, weight: float64(w), id: h}
}

// oracleBisect is a frozen copy of the sort.Slice LPT bisector: expand a
// single-node frontier into its children, assign nodes heaviest first
// (node ascending on ties) to the lighter bin, ties to A, and return the
// heavier frontier first.
func oracleBisect(nodes []oracleNode, salt uint64, f oracleFrontier) (oracleFrontier, oracleFrontier) {
	set := f.nodes
	for len(set) == 1 {
		children := nodes[set[0]].Children
		if len(children) == 0 {
			break
		}
		set = append([]int(nil), children...)
	}
	order := append([]int(nil), set...)
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		la, lb := nodes[a].Leaves, nodes[b].Leaves
		if la != lb {
			return la > lb
		}
		return a < b
	})
	var setA, setB []int
	var wA, wB int64
	for _, v := range order {
		l := nodes[v].Leaves
		if wA <= wB {
			setA = append(setA, v)
			wA += l
		} else {
			setB = append(setB, v)
			wB += l
		}
	}
	sort.Ints(setA)
	sort.Ints(setB)
	a, b := oracleFinish(nodes, salt, setA), oracleFinish(nodes, salt, setB)
	if a.weight >= b.weight {
		return a, b
	}
	return b, a
}

// sameFrontier reports how got differs from the oracle's frontier, or "".
func sameFrontier(got *Frontier, want oracleFrontier) string {
	if g := got.Nodes(); !slices.Equal(g, want.nodes) {
		return fmt.Sprintf("nodes %v, oracle %v", g, want.nodes)
	}
	if math.Float64bits(got.Weight()) != math.Float64bits(want.weight) {
		return fmt.Sprintf("weight %v, oracle %v", got.Weight(), want.weight)
	}
	if got.ID() != want.id {
		return fmt.Sprintf("ID %#x, oracle %#x", got.ID(), want.id)
	}
	if got.CanBisect() != (want.weight >= 2) {
		return fmt.Sprintf("CanBisect %v at weight %v", got.CanBisect(), want.weight)
	}
	return ""
}

// TestFrontierBisectMatchesOracle walks frontiers heaviest-first to up to
// 1024 parts over 120 seeds, default and small custom configurations, and
// compares every child's node set, weight bits, ID and CanBisect, and the
// children's order, with the frozen bisector.
func TestFrontierBisectMatchesOracle(t *testing.T) {
	const maxParts = 1024
	for seed := uint64(0); seed < 120; seed++ {
		cfg := DefaultGenConfig(seed)
		if seed%4 == 3 {
			cfg = GenConfig{MaxDepth: 2 + int(seed%9), MaxBranch: 2 + int(seed%5), ExpandProb: 0.7, Seed: seed}
		}
		nodes := oracleGenerate(cfg)
		salt := xrand.Mix(cfg.Seed, 0x5ea)
		got := []*Frontier{NewFrontier(MustGenerate(cfg))}
		want := []oracleFrontier{oracleFinish(nodes, salt, []int{0})}
		if d := sameFrontier(got[0], want[0]); d != "" {
			t.Fatalf("seed %d root: %s", seed, d)
		}
		for len(got) < maxParts {
			best := -1
			for i, w := range want {
				if w.weight >= 2 && (best == -1 || w.weight > want[best].weight) {
					best = i
				}
			}
			if best == -1 {
				break
			}
			g1, g2 := got[best].Bisect()
			w1, w2 := oracleBisect(nodes, salt, want[best])
			for _, c := range []struct {
				got  *Frontier
				want oracleFrontier
			}{{g1.(*Frontier), w1}, {g2.(*Frontier), w2}} {
				if d := sameFrontier(c.got, c.want); d != "" {
					t.Fatalf("seed %d part %d: bisecting %v: %s", seed, len(got), want[best].nodes, d)
				}
			}
			got[best], want[best] = g1.(*Frontier), w1
			got, want = append(got, g2.(*Frontier)), append(want, w2)
		}
	}
}
