package searchtree

import (
	"math"
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
		for i, w := range want {
			n := tr.Nodes[i]
			if n.Parent != w.Parent || n.Depth != w.Depth || n.Leaves != w.Leaves {
				t.Fatalf("seed %d node %d: (parent %d, depth %d, leaves %d), oracle (%d, %d, %d)",
					seed, i, n.Parent, n.Depth, n.Leaves, w.Parent, w.Depth, w.Leaves)
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

// childrenOf returns node v's children as ints.
func childrenOf(t *Tree, v int) []int {
	var out []int
	for _, c := range t.Children(v) {
		out = append(out, int(c))
	}
	return out
}
