package graph

import (
	"fmt"
	"math"
	"sync"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// DefaultEps is the balance slack used when Config.Eps is zero: each
// bisection side must weigh at most (1+ε)·W/2, the PMondriaan-style
// balance contract, so the implied bisector quality is α = (1−ε)/2.
const DefaultEps = 0.1

// Config parameterises a root graph Problem.
type Config struct {
	// Eps is the balance slack ε ∈ (0, 1); 0 selects DefaultEps. Each
	// side of every bisection weighs at most hiCap = ⌊(1+ε)·W/2⌋.
	Eps float64
	// Seed is the root problem ID and the origin of every derived
	// bisection RNG stream; 0 selects 1. Distinct seeds give distinct
	// deterministic bisection trees.
	Seed uint64
	// Recorder, when non-nil, receives every performed bisection so the
	// caller can evaluate measured-α̂ guarantee bounds.
	Recorder *bisect.AlphaRecorder
}

// Problem adapts a Hypergraph to bisect.Problem: Bisect runs the
// multilevel bisector once and returns the two induced sub-hypergraphs
// as child problems. Bisection is deterministic — the same problem always
// yields the same children, weights, and IDs — and the split is computed
// lazily once, shared by CanBisect and Bisect. A child's weight is known
// when its parent splits, but its hypergraph is built only when it or its
// sibling first needs one (graph), so the two parts of a split that ends
// a plan are never materialised.
type Problem struct {
	h     *Hypergraph // use graph(): a child's is built on first use
	total int64       // Σ vertex weights
	id    uint64
	depth int
	eps   float64
	rec   *bisect.AlphaRecorder
	from  *children // the split that made this problem; nil for a root

	once  sync.Once
	sides []uint8
	ok    bool
}

// children holds both children of one split in one allocation, with what
// building their hypergraphs needs: the parent's hypergraph and sides.
type children struct {
	kid [2]struct {
		p Problem
		h Hypergraph
	}
	built  sync.Once
	parent *Hypergraph
	sides  []uint8
}

func (c *children) build() {
	c.parent.induce(c.sides, &c.kid[0].h, &c.kid[1].h)
	c.parent, c.sides = nil, nil
}

// graph returns the problem's hypergraph, building it and its sibling's
// from their parent's on first use.
func (p *Problem) graph() *Hypergraph {
	if c := p.from; c != nil {
		c.built.Do(c.build)
	}
	return p.h
}

// New wraps h as a root Problem. The hypergraph must be non-empty;
// Config zero values select DefaultEps and seed 1.
func New(h *Hypergraph, cfg Config) (*Problem, error) {
	if h == nil || h.NumVertices() == 0 {
		return nil, ErrEmpty
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = DefaultEps
	}
	if eps < 0 || eps >= 1 || math.IsNaN(eps) {
		return nil, fmt.Errorf("%w: eps %v outside (0, 1)", ErrFormat, cfg.Eps)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Problem{h: h, total: h.total, id: seed, eps: eps, rec: cfg.Recorder}, nil
}

// Hypergraph returns the problem's underlying hypergraph.
func (p *Problem) Hypergraph() *Hypergraph { return p.graph() }

// ID returns the problem's unique identifier within its tree.
func (p *Problem) ID() uint64 { return p.id }

// Weight returns the total vertex weight. Construction caps keep totals
// below 2^52, so the float64 value is exact and children sum exactly to
// their parent.
func (p *Problem) Weight() float64 { return float64(p.total) }

// hiCap returns ⌊(1+ε)·W/2⌋, the heavier side's weight cap.
func (p *Problem) hiCap() int64 {
	return int64(math.Floor((1 + p.eps) * float64(p.total) / 2))
}

// AlphaFloor returns the smallest α̂ any in-band bisection of this
// problem can produce: (W − hiCap)/W ≥ (1−ε)/2. Every bisection the
// backend performs records at least this value.
func (p *Problem) AlphaFloor() float64 {
	return float64(p.total-p.hiCap()) / float64(p.total)
}

// Alpha returns the class bisector quality (1−ε)/2 implied by the
// balance contract; AlphaFloor is at least this for every instance.
func (p *Problem) Alpha() float64 { return (1 - p.eps) / 2 }

// split computes the bisection lazily, once. ok reports whether the
// bisector produced an in-band split — the authoritative feasibility
// answer shared by CanBisect and Bisect.
func (p *Problem) split() ([]uint8, bool) {
	p.once.Do(func() {
		h := p.graph()
		if h.NumVertices() < 2 {
			return
		}
		hi := p.hiCap()
		lo := p.total - hi
		sides := bisectSides(h, hi, xrand.Mix(p.id, 0xB15EC7))
		var w0 int64
		for v, s := range sides {
			if s == 0 {
				w0 += h.vwgt[v]
			}
		}
		if w0 < lo || w0 > hi {
			return
		}
		p.sides, p.ok = sides, true
	})
	return p.sides, p.ok
}

// CanBisect reports whether Bisect may be called: at least two vertices
// and the multilevel bisector actually achieves the (1+ε)·W/2 balance
// band on this instance. Indivisible problems (single vertex, or one
// vertex so heavy no in-band split exists) become final parts.
func (p *Problem) CanBisect() bool {
	_, ok := p.split()
	return ok
}

// Bisect splits the problem into two child problems with the heavier
// child first (ties keep side 0 first). Child IDs derive from the
// parent's via the same mixing scheme as the synthetic substrates, so
// HF and PHF see identical trees (Theorem 3 parity). Each call records
// the realized α̂ with the configured recorder.
func (p *Problem) Bisect() (bisect.Problem, bisect.Problem) {
	sides, ok := p.split()
	if !ok {
		panic("graph: Bisect called on indivisible problem")
	}
	var w [2]int64
	for v, s := range sides {
		w[s] += p.h.vwgt[v]
	}
	kids := &children{parent: p.h, sides: sides}
	heavy, light := 0, 1
	if w[1] > w[0] {
		heavy, light = 1, 0
	}
	child := func(s int, id uint64) *Problem {
		c := &kids.kid[s].p
		c.h, c.total, c.from = &kids.kid[s].h, w[s], kids
		c.id, c.depth, c.eps, c.rec = id, p.depth+1, p.eps, p.rec
		return c
	}
	a, b := child(heavy, xrand.Mix(p.id, 1)), child(light, xrand.Mix(p.id, 2))
	p.rec.Record(p.depth, float64(p.total), float64(w[heavy]), float64(w[light]))
	return a, b
}
