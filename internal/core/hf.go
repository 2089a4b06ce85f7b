package core

import (
	"bisectlb/internal/bisect"
	"bisectlb/internal/pheap"
)

// node pairs a problem with its bisection-tree depth.
type node struct {
	p     bisect.Problem
	depth int
}

// HF implements Algorithm HF (Heaviest Problem First, paper Figure 1): keep
// a pool of subproblems initialised to {p} and, while the pool holds fewer
// than n subproblems, bisect a subproblem of maximum weight. Ties on weight
// are broken by the smaller problem ID so runs are reproducible.
//
// For a class with α-bisectors, Theorem 2 guarantees
//
//	max_i w(p_i) ≤ (w(p)/n) · r_α,   r_α = (1/α)(1−α)^{⌈1/α⌉−2},
//
// using exactly n−1 bisections. HF is the sequential baseline every parallel
// algorithm in this package is measured against.
//
// Indivisible subproblems (CanBisect() == false) are parked as final parts;
// if every remaining subproblem is indivisible the partition ends with fewer
// than n parts, which the paper's model explicitly allows ("some processors
// remain idle").
func HF(p bisect.Problem, n int, opt Options) (*Result, error) {
	if err := validate(p, n); err != nil {
		return nil, err
	}
	r := newRun(opt, p, n)
	if err := r.heaviestFirst(p, n, 0); err != nil {
		return nil, err
	}
	return r.finish("HF", n, p.Weight()), nil
}

// heaviestFirst expands q into at most procs parts by bisecting a
// heaviest subproblem while parts remain — the whole of HF, and BA-HF's
// inner phase — appending parts at their absolute bisection-tree depth.
// Subproblems live in a slice arena; the heap holds (weight, id, ref)
// triples indexing it, which keeps the heap allocation-free (DESIGN.md
// §10). Both are sized by the first call and reset by every call, so
// BA-HF's finishing phases share one backing store.
func (r *run) heaviestFirst(q bisect.Problem, procs, depth int) error {
	if r.heap == nil {
		r.heap = pheap.New(procs)
		r.arena = make([]node, 0, 2*procs)
	}
	h := r.heap
	h.Reset()
	r.arena = append(r.arena[:0], node{q, depth})
	h.Push(pheap.Item{Weight: q.Weight(), ID: q.ID(), Ref: 0})
	done := 0
	for h.Len() > 0 && done+h.Len() < procs {
		nd := r.arena[h.Pop().Ref]
		if !nd.p.CanBisect() {
			r.parts = append(r.parts, Part{Problem: nd.p, Procs: 1, Depth: nd.depth})
			done++
			continue
		}
		c1, c2, err := r.bisect(nd.p)
		if err != nil {
			return err
		}
		r.arena = append(r.arena, node{c1, nd.depth + 1}, node{c2, nd.depth + 1})
		h.Push(pheap.Item{Weight: c1.Weight(), ID: c1.ID(), Ref: int32(len(r.arena) - 2)})
		h.Push(pheap.Item{Weight: c2.Weight(), ID: c2.ID(), Ref: int32(len(r.arena) - 1)})
	}
	h.Drain(func(it pheap.Item) {
		nd := r.arena[it.Ref]
		r.parts = append(r.parts, Part{Problem: nd.p, Procs: 1, Depth: nd.depth})
	})
	return nil
}

// HFScan is Algorithm HF implemented with a linear scan for the maximum
// instead of a heap. It exists purely as the ablation baseline for the
// BenchmarkHFHeapVsScan comparison (DESIGN.md §7); callers should use HF.
func HFScan(p bisect.Problem, n int, opt Options) (*Result, error) {
	if err := validate(p, n); err != nil {
		return nil, err
	}
	r := newRun(opt, p, n)
	pool := []node{{p, 0}}
	for len(pool) > 0 && len(r.parts)+len(pool) < n {
		// Linear scan for the heaviest subproblem (ties: smaller ID).
		best := 0
		for i := 1; i < len(pool); i++ {
			wi, wb := pool[i].p.Weight(), pool[best].p.Weight()
			if wi > wb || (wi == wb && pool[i].p.ID() < pool[best].p.ID()) {
				best = i
			}
		}
		nd := pool[best]
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if !nd.p.CanBisect() {
			r.parts = append(r.parts, Part{Problem: nd.p, Procs: 1, Depth: nd.depth})
			continue
		}
		c1, c2, err := r.bisect(nd.p)
		if err != nil {
			return nil, err
		}
		pool = append(pool, node{c1, nd.depth + 1}, node{c2, nd.depth + 1})
	}
	for _, nd := range pool {
		r.parts = append(r.parts, Part{Problem: nd.p, Procs: 1, Depth: nd.depth})
	}
	return r.finish("HF", n, p.Weight()), nil
}
