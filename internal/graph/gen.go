package graph

import (
	"fmt"

	"bisectlb/internal/xrand"
)

// genWeights draws small seeded integer vertex weights in [1, spread].
// spread ≤ 1 yields unit weights.
func genWeights(n int, spread int64, seed uint64) []int64 {
	if spread <= 1 {
		return nil // FromNets defaults to unit weights
	}
	rng := xrand.New(xrand.Mix(seed, 0x57E16))
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = 1 + int64(rng.Uint64()%uint64(spread))
	}
	return vw
}

// GridGraph builds a rows×cols 4-neighbour mesh — the FEM-style
// structured instance — with seeded vertex weights in [1, spread]
// (unit weights when spread ≤ 1). The mesh has excellent bisectors, so
// measured α̂ should sit near 1/2.
func GridGraph(rows, cols int, spread int64, seed uint64) (*Hypergraph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("%w: grid %dx%d", ErrFormat, rows, cols)
	}
	if rows > MaxVertices/cols {
		return nil, fmt.Errorf("%w: grid %dx%d exceeds %d vertices", ErrTooLarge, rows, cols, MaxVertices)
	}
	nv := rows * cols
	edges := make([]Edge, 0, 2*nv)
	at := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: at(r, c), V: at(r, c+1), Weight: 1})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: at(r, c), V: at(r+1, c), Weight: 1})
			}
		}
	}
	return FromEdges(nv, genWeights(nv, spread, seed), edges)
}

// RingGraph builds a cycle of nv vertices plus `chords` seeded random
// chords — a small-world-ish instance whose bisectors are good but not
// geometric. Vertex weights are seeded in [1, spread].
func RingGraph(nv int, chords int, spread int64, seed uint64) (*Hypergraph, error) {
	if nv < 3 {
		return nil, fmt.Errorf("%w: ring wants ≥ 3 vertices, got %d", ErrFormat, nv)
	}
	if nv > MaxVertices || chords < 0 || chords > MaxPins/2-nv {
		return nil, fmt.Errorf("%w: ring %d vertices, %d chords", ErrTooLarge, nv, chords)
	}
	edges := make([]Edge, 0, nv+chords)
	for v := 0; v < nv; v++ {
		edges = append(edges, Edge{U: int32(v), V: int32((v + 1) % nv), Weight: 1})
	}
	rng := xrand.New(xrand.Mix(seed, 0x21B6))
	for len(edges) < nv+chords {
		u := int32(rng.Intn(nv))
		v := int32(rng.Intn(nv))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Weight: 1})
	}
	return FromEdges(nv, genWeights(nv, spread, seed), edges)
}

// RandomHypergraph builds nv vertices and nets seeded nets of 2..maxPin
// distinct pins each, with vertex weights in [1, spread] — the sparse
// unstructured instance class.
func RandomHypergraph(nv, nets, maxPin int, spread int64, seed uint64) (*Hypergraph, error) {
	if nv < 2 || nets < 1 || maxPin < 2 {
		return nil, fmt.Errorf("%w: hypergraph nv=%d nets=%d maxPin=%d", ErrFormat, nv, nets, maxPin)
	}
	if nv > MaxVertices || nets > MaxPins/2 || maxPin > nv {
		return nil, fmt.Errorf("%w: hypergraph nv=%d nets=%d maxPin=%d", ErrTooLarge, nv, nets, maxPin)
	}
	rng := xrand.New(xrand.Mix(seed, 0x8F2D))
	// All pin lists share one backing array; ends[n] is where net n stops.
	var all []int32
	ends := make([]int, nets)
	seen := make([]int, nv)
	for n := 0; n < nets; n++ {
		k := 2 + rng.Intn(maxPin-1)
		for start := len(all); len(all)-start < k; {
			v := rng.Intn(nv)
			if seen[v] == n+1 {
				continue
			}
			seen[v] = n + 1
			all = append(all, int32(v))
		}
		ends[n] = len(all)
	}
	netPins := make([][]int32, nets)
	start := 0
	for n, end := range ends {
		netPins[n] = all[start:end:end]
		start = end
	}
	return FromNets(nv, genWeights(nv, spread, seed), netPins, nil)
}
