package core

import (
	"sync"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
)

// ProblemKernel is the flat kernel over any bisect.Problem: it is how HF,
// BA, BAHF and PHF plan a Problem on the Planner, and how a custom
// Problem reaches the flat API. A node's S0 indexes an arena of Problems
// the kernel owns. Split bisects the node's Problem and appends both
// children; CanSplit asks CanBisect. Nothing is decided early, so the
// planners call each Problem exactly where the paper's algorithms do and
// a substrate that bisects to learn leafness (graph, spatial) runs no
// extra bisections.
//
// A ProblemKernel serves one plan: its arena grows with every Split and
// its nodes are meaningful only to it. Split is not safe for concurrent
// use, so a planner with workers and DeltaPlanner recognise the kernel and
// split on one goroutine; a kernel that wraps one must not be handed to
// them.
type ProblemKernel struct {
	probs []bisect.Problem
	tree  *bistree.Tree
	// err is the first tree-recording error (an ID collision, say);
	// Split cannot return it, so the algorithms report it afterwards.
	err error
}

// NewProblemKernel returns p's flat root node and the kernel that
// splits it. With opt.RecordTree every bisection is also recorded into
// the kernel's bisection tree. Only a nil p is rejected here; the
// planners validate the root's weight, in the order Balance checks its
// input.
func NewProblemKernel(p bisect.Problem, opt Options) (bisect.FlatNode, *ProblemKernel, error) {
	if p == nil {
		return bisect.FlatNode{}, nil, bisect.ErrNilProblem
	}
	k := &ProblemKernel{probs: []bisect.Problem{p}}
	if opt.RecordTree {
		k.tree = bistree.New(p.ID(), p.Weight())
	}
	return bisect.FlatNode{Weight: p.Weight(), ID: p.ID()}, k, nil
}

// Split bisects the node's Problem, returning its children in Bisect
// order.
func (k *ProblemKernel) Split(n bisect.FlatNode) (c1, c2 bisect.FlatNode) {
	a, b := k.probs[n.S0].Bisect()
	if k.tree != nil && k.err == nil {
		k.err = k.tree.RecordBisection(n.ID, a.ID(), a.Weight(), b.ID(), b.Weight())
	}
	i := uint64(len(k.probs))
	k.probs = append(k.probs, a, b)
	return bisect.FlatNode{Weight: a.Weight(), ID: a.ID(), S0: i, Depth: n.Depth + 1},
		bisect.FlatNode{Weight: b.Weight(), ID: b.ID(), S0: i + 1, Depth: n.Depth + 1}
}

// CanSplit reports whether the node's Problem can be bisected.
func (k *ProblemKernel) CanSplit(n bisect.FlatNode) bool { return k.probs[n.S0].CanBisect() }

// result converts a finished plan of this kernel's nodes into a Result
// named name, or returns the first tree-recording error.
func (k *ProblemKernel) result(plan *Plan, name string) (*Result, error) {
	if k.err != nil {
		return nil, k.err
	}
	parts := make([]Part, len(plan.Parts))
	for i, pt := range plan.Parts {
		parts[i] = Part{Problem: k.probs[pt.Node.S0], Procs: int(pt.Procs), Depth: int(pt.Node.Depth)}
	}
	return &Result{
		Algorithm:  name,
		Parts:      parts,
		N:          plan.N,
		Total:      plan.Total,
		Max:        plan.Max,
		Ratio:      plan.Ratio,
		Bisections: plan.Bisections,
		MaxDepth:   plan.MaxDepth,
		Tree:       k.tree,
	}, nil
}

// adapterScratch is a Planner, its Plan buffer and a problem-kernel
// arena, pooled across planProblem calls. sync.Pool sheds idle entries
// at garbage collection, so a large plan does not pin its buffers.
type adapterScratch struct {
	pl    Planner
	plan  Plan
	probs []bisect.Problem
}

var adapterPool = sync.Pool{New: func() any { return new(adapterScratch) }}

// planProblem plans p into at most n parts with run, on a pooled Planner
// through the problem kernel, and converts the plan into a Result named
// name.
func planProblem(p bisect.Problem, n int, opt Options, name string, run func(*Planner, *Plan, bisect.Kernel, bisect.FlatNode) error) (*Result, error) {
	root, k, err := NewProblemKernel(p, opt)
	if err != nil {
		return nil, err
	}
	sc := adapterPool.Get().(*adapterScratch)
	k.probs = append(sc.probs[:0], p)
	defer func() {
		// Drop the Problems so the pooled arena does not keep them alive.
		clear(k.probs)
		sc.probs = k.probs[:0]
		adapterPool.Put(sc)
	}()
	if err := run(&sc.pl, &sc.plan, k, root); err != nil {
		return nil, err
	}
	return k.result(&sc.plan, name)
}

// concurrentSplit reports whether k's Split may run on several
// goroutines at once, which every kernel but the problem kernel allows.
func concurrentSplit(k bisect.Kernel) bool {
	_, serial := k.(*ProblemKernel)
	return !serial
}
