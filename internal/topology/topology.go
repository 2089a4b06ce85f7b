// Package topology models interconnection networks for the simulated
// parallel machine. The paper analyses its algorithms under idealised
// assumptions — unit-cost transmission and ⌈log2 N⌉-cost global operations,
// noting they hold "on many realistic architectures with at most
// logarithmic slowdown" — and its conclusion stresses that the choice
// among HF/PHF/BA/BA-HF "must take into account the characteristics of the
// parallel machine architecture". This package supplies those
// characteristics: per-hop point-to-point distances and collective costs
// for the classic topologies (complete graph, hypercube, 2-D mesh, ring,
// fat-tree), so internal/machine can re-run the algorithms under each and
// the experiments can show where the idealised conclusions bend.
package topology

import (
	"fmt"
	"math"
	"math/bits"

	"bisectlb/internal/bounds"
)

// Topology describes an interconnection network on processors 0 … N−1.
type Topology interface {
	// Name identifies the topology in reports.
	Name() string
	// N returns the processor count.
	N() int
	// Distance returns the hop count between two processors; transmitting
	// a subproblem costs CostSend × Distance time units.
	Distance(i, j int) int64
	// CollectiveCost returns the time for one global operation (barrier,
	// reduction, prefix computation) on the full machine.
	CollectiveCost() int64
	// Diameter returns the maximum distance between any two processors.
	Diameter() int64
}

func checkN(n int) {
	if n < 1 {
		panic(fmt.Sprintf("topology: processor count %d must be ≥ 1", n))
	}
}

func checkPair(t Topology, i, j int) {
	if i < 0 || i >= t.N() || j < 0 || j >= t.N() {
		panic(fmt.Sprintf("topology: processors (%d, %d) out of range [0, %d)", i, j, t.N()))
	}
}

// Complete is the paper's idealised machine: every pair one hop apart,
// collectives in ⌈log2 N⌉.
type Complete struct{ n int }

// NewComplete builds the idealised machine.
func NewComplete(n int) *Complete {
	checkN(n)
	return &Complete{n: n}
}

// Name implements Topology.
func (c *Complete) Name() string { return "complete" }

// N implements Topology.
func (c *Complete) N() int { return c.n }

// Distance implements Topology.
func (c *Complete) Distance(i, j int) int64 {
	checkPair(c, i, j)
	if i == j {
		return 0
	}
	return 1
}

// CollectiveCost implements Topology.
func (c *Complete) CollectiveCost() int64 { return bounds.CollectiveCost(c.n) }

// Diameter implements Topology.
func (c *Complete) Diameter() int64 {
	if c.n == 1 {
		return 0
	}
	return 1
}

// Hypercube connects processors whose ids differ in one bit. N is rounded
// up to a power of two for addressing; ids ≥ N simply do not occur.
type Hypercube struct {
	n   int
	dim int
}

// NewHypercube builds a hypercube covering n processors.
func NewHypercube(n int) *Hypercube {
	checkN(n)
	return &Hypercube{n: n, dim: int(bounds.CollectiveCost(n))}
}

// Name implements Topology.
func (h *Hypercube) Name() string { return "hypercube" }

// N implements Topology.
func (h *Hypercube) N() int { return h.n }

// Distance is the Hamming distance of the ids.
func (h *Hypercube) Distance(i, j int) int64 {
	checkPair(h, i, j)
	return int64(bits.OnesCount(uint(i ^ j)))
}

// CollectiveCost is one sweep over the dimensions.
func (h *Hypercube) CollectiveCost() int64 { return int64(h.dim) }

// Diameter implements Topology.
func (h *Hypercube) Diameter() int64 { return int64(h.dim) }

// Mesh2D is a √N × √N grid without wraparound. Collectives run along rows
// then columns, costing Θ(√N) — the topology where the paper's O(log N)
// collective assumption visibly fails.
type Mesh2D struct {
	n    int
	side int
}

// NewMesh2D builds the smallest square mesh covering n processors.
func NewMesh2D(n int) *Mesh2D {
	checkN(n)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	return &Mesh2D{n: n, side: side}
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return "mesh2d" }

// N implements Topology.
func (m *Mesh2D) N() int { return m.n }

func (m *Mesh2D) coords(i int) (x, y int) { return i % m.side, i / m.side }

// Distance is the Manhattan distance on the grid.
func (m *Mesh2D) Distance(i, j int) int64 {
	checkPair(m, i, j)
	xi, yi := m.coords(i)
	xj, yj := m.coords(j)
	return int64(abs(xi-xj) + abs(yi-yj))
}

// CollectiveCost is a row sweep plus a column sweep.
func (m *Mesh2D) CollectiveCost() int64 {
	if m.side <= 1 {
		return 0
	}
	return int64(2 * (m.side - 1))
}

// Diameter implements Topology.
func (m *Mesh2D) Diameter() int64 {
	rows := (m.n + m.side - 1) / m.side
	return int64(m.side - 1 + rows - 1)
}

// Ring connects each processor to its two neighbours.
type Ring struct{ n int }

// NewRing builds a bidirectional ring.
func NewRing(n int) *Ring {
	checkN(n)
	return &Ring{n: n}
}

// Name implements Topology.
func (r *Ring) Name() string { return "ring" }

// N implements Topology.
func (r *Ring) N() int { return r.n }

// Distance is the shorter way around.
func (r *Ring) Distance(i, j int) int64 {
	checkPair(r, i, j)
	d := abs(i - j)
	if alt := r.n - d; alt < d {
		d = alt
	}
	return int64(d)
}

// CollectiveCost is half the ring (recursive doubling is unavailable).
func (r *Ring) CollectiveCost() int64 { return int64(r.n / 2) }

// Diameter implements Topology.
func (r *Ring) Diameter() int64 { return int64(r.n / 2) }

// FatTree is a complete binary fat-tree with the processors at the leaves;
// the distance between two leaves is twice the level of their lowest
// common ancestor. Link capacities are assumed to scale with level (the
// "fat" part), so collectives cost 2·⌈log2 N⌉ without contention.
type FatTree struct{ n int }

// NewFatTree builds a fat-tree over n leaf processors.
func NewFatTree(n int) *FatTree {
	checkN(n)
	return &FatTree{n: n}
}

// Name implements Topology.
func (f *FatTree) Name() string { return "fat-tree" }

// N implements Topology.
func (f *FatTree) N() int { return f.n }

// Distance is up to the lowest common ancestor and back down.
func (f *FatTree) Distance(i, j int) int64 {
	checkPair(f, i, j)
	if i == j {
		return 0
	}
	return 2 * int64(bits.Len(uint(i^j)))
}

// CollectiveCost is an up-sweep and a down-sweep of the tree.
func (f *FatTree) CollectiveCost() int64 { return 2 * bounds.CollectiveCost(f.n) }

// Diameter implements Topology.
func (f *FatTree) Diameter() int64 {
	if f.n == 1 {
		return 0
	}
	return 2 * bounds.CollectiveCost(f.n)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// All returns one instance of every topology at the given size, idealised
// machine first.
func All(n int) []Topology {
	return []Topology{
		NewComplete(n),
		NewHypercube(n),
		NewFatTree(n),
		NewMesh2D(n),
		NewRing(n),
	}
}
