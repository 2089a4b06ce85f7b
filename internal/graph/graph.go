package graph

import (
	"errors"
	"fmt"
)

// Decode and construction caps. Loaders and builders reject inputs above
// these bounds with ErrTooLarge before allocating, so a malformed or
// adversarial header can never OOM the process (the netcoll framing
// discipline applied to text loaders).
const (
	// MaxVertices bounds the vertex count of any constructed hypergraph.
	MaxVertices = 1 << 20
	// MaxPins bounds the total pin (vertex-in-net incidence) count.
	MaxPins = 1 << 22
	// MaxVertexWeight bounds a single vertex weight; the sum of MaxVertices
	// weights then still fits int64 with headroom.
	MaxVertexWeight = 1 << 40
)

// Typed construction/loader errors.
var (
	// ErrFormat reports malformed loader input (wrong token count, bad
	// number, out-of-range index…). Loaders never panic on bad input.
	ErrFormat = errors.New("graph: malformed input")
	// ErrTooLarge reports input exceeding the decode caps.
	ErrTooLarge = errors.New("graph: input exceeds size caps")
	// ErrEmpty reports a structurally valid but vertex-less input.
	ErrEmpty = errors.New("graph: no vertices")
)

// Hypergraph is an immutable vertex-weighted hypergraph in compressed
// sparse row form, the substrate of the multilevel bisector. A plain
// graph is the special case where every net has exactly two pins; the
// builders below produce both. Immutability is what makes Problem
// bisection deterministic and side-effect-free: children materialise
// fresh sub-hypergraphs and never touch the parent.
type Hypergraph struct {
	vwgt []int64 // vertex weights, len = NumVertices
	nwgt []int64 // net weights, len = NumNets

	// vertex → incident nets (CSR)
	xpins []int32
	pins  []int32
	// net → member vertices (CSR)
	xnets []int32
	nets  []int32

	total int64 // Σ vwgt
	wmax  int64 // max vwgt
}

// NumVertices returns the vertex count.
func (h *Hypergraph) NumVertices() int { return len(h.vwgt) }

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return len(h.nwgt) }

// NumPins returns the total pin count (Σ net sizes).
func (h *Hypergraph) NumPins() int { return len(h.nets) }

// TotalWeight returns the vertex weight sum.
func (h *Hypergraph) TotalWeight() int64 { return h.total }

// MaxVertexWeight returns the largest single vertex weight.
func (h *Hypergraph) MaxVertexWeight() int64 { return h.wmax }

// VertexWeight returns the weight of vertex v.
func (h *Hypergraph) VertexWeight(v int) int64 { return h.vwgt[v] }

// FromNets builds a hypergraph from explicit net (hyperedge) pin lists.
// Vertex weights default to 1 when vw is nil; net weights default to 1
// when nw is nil. Nets keep their given order; pins must be in-range
// vertex indices. Duplicate pins within a net are rejected — they would
// double-count cut contributions.
func FromNets(nv int, vw []int64, netPins [][]int32, nw []int64) (*Hypergraph, error) {
	if nv <= 0 {
		return nil, ErrEmpty
	}
	if nv > MaxVertices {
		return nil, fmt.Errorf("%w: %d vertices (cap %d)", ErrTooLarge, nv, MaxVertices)
	}
	if vw != nil && len(vw) != nv {
		return nil, fmt.Errorf("%w: %d vertex weights for %d vertices", ErrFormat, len(vw), nv)
	}
	if nw != nil && len(nw) != len(netPins) {
		return nil, fmt.Errorf("%w: %d net weights for %d nets", ErrFormat, len(nw), len(netPins))
	}
	totalPins := 0
	for _, p := range netPins {
		totalPins += len(p)
	}
	if totalPins > MaxPins {
		return nil, fmt.Errorf("%w: %d pins (cap %d)", ErrTooLarge, totalPins, MaxPins)
	}
	h := &Hypergraph{
		vwgt:  make([]int64, nv),
		nwgt:  make([]int64, len(netPins)),
		xpins: make([]int32, nv+1),
		pins:  make([]int32, 0, totalPins),
		xnets: make([]int32, len(netPins)+1),
		nets:  make([]int32, 0, totalPins),
	}
	for v := range h.vwgt {
		w := int64(1)
		if vw != nil {
			w = vw[v]
		}
		if w < 1 || w > MaxVertexWeight {
			return nil, fmt.Errorf("%w: vertex %d weight %d outside [1, %d]", ErrFormat, v, w, int64(MaxVertexWeight))
		}
		h.vwgt[v] = w
		h.total += w
		if w > h.wmax {
			h.wmax = w
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	deg := grow(sc.deg, nv)
	clear(deg)
	seen := grow(sc.stamp, nv) // seen[v] = net index + 1 that last used v
	clear(seen)
	sc.deg, sc.stamp = deg, seen
	for n, p := range netPins {
		w := int64(1)
		if nw != nil {
			w = nw[n]
		}
		if w < 1 || w > MaxVertexWeight {
			return nil, fmt.Errorf("%w: net %d weight %d outside [1, %d]", ErrFormat, n, w, int64(MaxVertexWeight))
		}
		h.nwgt[n] = w
		for _, v := range p {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("%w: net %d pin %d out of range [0, %d)", ErrFormat, n, v, nv)
			}
			if seen[v] == int32(n)+1 {
				return nil, fmt.Errorf("%w: net %d lists vertex %d twice", ErrFormat, n, v)
			}
			seen[v] = int32(n) + 1
			deg[v]++
			h.nets = append(h.nets, v)
		}
		h.xnets[n+1] = int32(len(h.nets))
	}
	h.pins = h.pins[:totalPins]
	transpose(h, deg)
	return h, nil
}

// Edge is one weighted undirected edge for FromEdges.
type Edge struct {
	U, V   int32
	Weight int64
}

// FromEdges builds a plain graph (every edge a 2-pin net) from an edge
// list. Self-loops are rejected; parallel edges are allowed and behave
// as parallel nets (their cut weights add).
func FromEdges(nv int, vw []int64, edges []Edge) (*Hypergraph, error) {
	netPins := make([][]int32, len(edges))
	pins := make([]int32, 2*len(edges))
	nw := make([]int64, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("%w: self-loop at vertex %d", ErrFormat, e.U)
		}
		pins[2*i], pins[2*i+1] = e.U, e.V
		netPins[i] = pins[2*i : 2*i+2 : 2*i+2]
		w := e.Weight
		if w == 0 {
			w = 1
		}
		nw[i] = w
	}
	return FromNets(nv, vw, netPins, nw)
}

// induce materialises into sub0 and sub1 the sub-hypergraphs on the
// vertices of side 0 and of side 1, keeping original relative vertex
// order. Nets are restricted to their surviving pins; nets left with
// fewer than two pins are dropped — they can never be cut again and carry
// no vertex weight. One counting pass sizes both children, whose arrays
// are then carved from one int64 and one int32 allocation; the vertex
// remap, the per-net side counts and the degrees live in pooled scratch.
func (h *Hypergraph) induce(side []uint8, sub0, sub1 *Hypergraph) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	subs := [2]*Hypergraph{sub0, sub1}
	remap := grow(sc.stamp, len(h.vwgt))
	var nv, nn, np [2]int
	for v, s := range side[:len(h.vwgt)] {
		remap[v] = int32(nv[s])
		nv[s]++
	}
	cnt := grow(sc.cnt, h.NumNets())
	for n := range cnt {
		var c [2]int32
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			c[side[v]]++
		}
		cnt[n] = c
		for s, k := range c {
			if k >= 2 {
				nn[s]++
				np[s] += int(k)
			}
		}
	}
	w64 := make([]int64, nv[0]+nn[0]+nv[1]+nn[1])
	w32 := make([]int32, nv[0]+nn[0]+2*np[0]+nv[1]+nn[1]+2*np[1]+4)
	take64 := func(n int) []int64 { b := w64[:n:n]; w64 = w64[n:]; return b }
	take32 := func(n int) []int32 { b := w32[:n:n]; w32 = w32[n:]; return b }
	for s, sub := range subs {
		*sub = Hypergraph{
			vwgt:  take64(nv[s]),
			nwgt:  take64(nn[s])[:0],
			xpins: take32(nv[s] + 1),
			pins:  take32(np[s]),
			xnets: take32(nn[s] + 1)[:1],
			nets:  take32(np[s])[:0],
		}
	}
	for v, w := range h.vwgt {
		sub := subs[side[v]]
		sub.vwgt[remap[v]] = w
		sub.total += w
		sub.wmax = max(sub.wmax, w)
	}
	deg := grow(sc.deg, len(h.vwgt))
	clear(deg)
	degs := [2][]int32{deg[:nv[0]], deg[nv[0]:]}
	for n, c := range cnt {
		if c[0] < 2 && c[1] < 2 {
			continue
		}
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			if s := side[v]; c[s] >= 2 {
				subs[s].nets = append(subs[s].nets, remap[v])
				degs[s][remap[v]]++
			}
		}
		for s, sub := range subs {
			if c[s] >= 2 {
				sub.nwgt = append(sub.nwgt, h.nwgt[n])
				sub.xnets = append(sub.xnets, int32(len(sub.nets)))
			}
		}
	}
	transpose(sub0, degs[0])
	transpose(sub1, degs[1])
	sc.stamp, sc.cnt, sc.deg = remap, cnt, deg
}
