package core

import (
	"fmt"
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
	"bisectlb/internal/pheap"
)

// Part is one subproblem of the computed partition.
type Part struct {
	Problem bisect.Problem
	// Procs is the number of processors responsible for the subproblem.
	// It is 1 for every part of an HF/PHF partition; the BA family can
	// assign several processors to an indivisible problem (the extras
	// stay idle).
	Procs int
	// Depth is the part's depth in the bisection tree (root = 0).
	Depth int
}

// Result is the outcome of one load-balancing run.
type Result struct {
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Parts are the computed subproblems in ascending problem-ID order.
	Parts []Part
	// N is the requested processor count.
	N int
	// Total is the root problem weight.
	Total float64
	// Max is the heaviest part weight.
	Max float64
	// Ratio is Max / (Total/N), the paper's quality measure.
	Ratio float64
	// Bisections is the number of bisection steps performed.
	Bisections int
	// MaxDepth is the deepest leaf of the bisection tree.
	MaxDepth int
	// Tree is the recorded bisection tree, nil unless requested.
	Tree *bistree.Tree
}

// Options configure an algorithm run.
type Options struct {
	// RecordTree enables bisection-tree recording on the Result. Recording
	// costs memory proportional to the number of bisections.
	RecordTree bool
}

// recorder wraps an optional bistree.Tree so algorithm code can record
// unconditionally.
type recorder struct {
	tree *bistree.Tree
}

func newRecorder(opt Options, root bisect.Problem) recorder {
	if !opt.RecordTree {
		return recorder{}
	}
	return recorder{tree: bistree.New(root.ID(), root.Weight())}
}

func (r recorder) bisection(parent, c1, c2 bisect.Problem) error {
	if r.tree == nil {
		return nil
	}
	return r.tree.RecordBisection(parent.ID(), c1.ID(), c1.Weight(), c2.ID(), c2.Weight())
}

func (r recorder) procs(p bisect.Problem, n int) {
	if r.tree == nil {
		return
	}
	// The node must exist; SetProcs only fails for unknown IDs, which would
	// indicate a recording bug, so surface it loudly in development builds.
	if err := r.tree.SetProcs(p.ID(), n); err != nil {
		panic(err)
	}
}

// run is the state of one interface-path HF, BA or BA-HF run: the tree
// recorder, the parts found so far, the bisection count, and the
// heaviest-first queue and node arena the HF loop reuses.
type run struct {
	rec        recorder
	parts      []Part
	bisections int
	heap       *pheap.Heap
	arena      []node
}

func newRun(opt Options, root bisect.Problem, n int) *run {
	return &run{rec: newRecorder(opt, root), parts: make([]Part, 0, n)}
}

// bisect splits q, counting and recording the bisection.
func (r *run) bisect(q bisect.Problem) (c1, c2 bisect.Problem, err error) {
	c1, c2 = q.Bisect()
	r.bisections++
	return c1, c2, r.rec.bisection(q, c1, c2)
}

// finish finalizes the run's parts into a Result.
func (r *run) finish(alg string, n int, total float64) *Result {
	return finalize(alg, r.parts, n, total, r.bisections, r.rec)
}

// finalize sorts parts into ascending ID order, computes the summary
// statistics and attaches the recorded tree. The sort is the flat
// planner's ID sort: each part's ID is read through the Problem
// interface once, into the sort's ID buffer.
func finalize(alg string, parts []Part, n int, total float64, bisections int, rec recorder) *Result {
	var s idSort
	ids := s.gather(len(parts))
	for i := range parts {
		ids[i] = parts[i].Problem.ID()
	}
	permute(parts, s.order(ids))
	maxW := 0.0
	maxD := 0
	for _, pt := range parts {
		if w := pt.Problem.Weight(); w > maxW {
			maxW = w
		}
		if pt.Depth > maxD {
			maxD = pt.Depth
		}
	}
	return &Result{
		Algorithm:  alg,
		Parts:      parts,
		N:          n,
		Total:      total,
		Max:        maxW,
		Ratio:      bisect.Ratio(maxW, total, n),
		Bisections: bisections,
		MaxDepth:   maxD,
		Tree:       rec.tree,
	}
}

// validate checks the shared preconditions of every algorithm.
func validate(p bisect.Problem, n int) error {
	if err := bisect.ValidateRoot(p); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("core: processor count must be ≥ 1, got %d", n)
	}
	return nil
}

// PartIDs returns the sorted problem IDs of a result's parts.
func (r *Result) PartIDs() []uint64 {
	ids := make([]uint64, len(r.Parts))
	for i, pt := range r.Parts {
		ids[i] = pt.Problem.ID()
	}
	return ids
}

// Weights returns the part weights in ID order.
func (r *Result) Weights() []float64 {
	ws := make([]float64, len(r.Parts))
	for i, pt := range r.Parts {
		ws[i] = pt.Problem.Weight()
	}
	return ws
}

// SamePartition reports whether two results consist of exactly the same
// subproblems, identified by problem ID. It is the executable form of the
// paper's Theorem 3 ("Algorithm PHF produces the same partitioning of p into
// subproblems as Algorithm HF").
func SamePartition(a, b *Result) bool {
	if a == nil || b == nil || len(a.Parts) != len(b.Parts) {
		return false
	}
	ai, bi := a.PartIDs(), b.PartIDs()
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	return true
}

// CheckPartition verifies the structural contract of a result: part count
// within [1, N], all weights positive, weights summing to the total within
// relative tolerance tol, and Max/Ratio consistent. Algorithms are tested
// against it; users can call it to validate custom Problem implementations.
func (r *Result) CheckPartition(tol float64) error {
	if len(r.Parts) == 0 {
		return fmt.Errorf("core: result has no parts")
	}
	if len(r.Parts) > r.N {
		return fmt.Errorf("core: %d parts exceed %d processors", len(r.Parts), r.N)
	}
	sum := 0.0
	maxW := 0.0
	for _, pt := range r.Parts {
		w := pt.Problem.Weight()
		if !(w > 0) {
			return fmt.Errorf("core: part %d has non-positive weight %g", pt.Problem.ID(), w)
		}
		if pt.Procs < 1 {
			return fmt.Errorf("core: part %d assigned %d processors", pt.Problem.ID(), pt.Procs)
		}
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if d := math.Abs(sum - r.Total); d > tol*r.Total {
		return fmt.Errorf("core: part weights sum to %g, want %g", sum, r.Total)
	}
	if math.Abs(maxW-r.Max) > tol*r.Total {
		return fmt.Errorf("core: recorded max %g, recomputed %g", r.Max, maxW)
	}
	return nil
}
