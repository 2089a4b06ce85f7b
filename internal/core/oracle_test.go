package core

// The reference oracle: the paper's algorithms as direct recursions over
// bisect.Problem values. Only SplitProcs is shared with the Planner; the
// loops, linear-scan maximum selection, tree recorder, sort.Slice
// selection and stable ID sort are their own, so the adapters (HF, BA,
// BAHF, PHF and BANaiveSplit over the problem kernel) and the Planner's
// flat plans are checked against an independent implementation of the
// paper's figures, not against themselves. The substrates' splits are
// pinned separately, against frozen copies, in internal/bisect.

import (
	"fmt"
	"sort"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
	"bisectlb/internal/bounds"
)

// oNode pairs a problem with its bisection-tree depth.
type oNode struct {
	p     bisect.Problem
	depth int
}

// oRecorder wraps an optional bistree.Tree so oracle code can record
// unconditionally.
type oRecorder struct {
	tree *bistree.Tree
}

func newORecorder(opt Options, root bisect.Problem) oRecorder {
	if !opt.RecordTree {
		return oRecorder{}
	}
	return oRecorder{tree: bistree.New(root.ID(), root.Weight())}
}

func (r oRecorder) bisection(parent, c1, c2 bisect.Problem) error {
	if r.tree == nil {
		return nil
	}
	return r.tree.RecordBisection(parent.ID(), c1.ID(), c1.Weight(), c2.ID(), c2.Weight())
}

func (r oRecorder) procs(p bisect.Problem, n int) {
	if r.tree == nil {
		return
	}
	if err := r.tree.SetProcs(p.ID(), n); err != nil {
		panic(err)
	}
}

// oRun is the state of one oracle HF, BA or BA-HF run.
type oRun struct {
	rec        oRecorder
	parts      []Part
	bisections int
}

func newORun(opt Options, root bisect.Problem, n int) *oRun {
	return &oRun{rec: newORecorder(opt, root), parts: make([]Part, 0, n)}
}

func (r *oRun) bisect(q bisect.Problem) (c1, c2 bisect.Problem, err error) {
	c1, c2 = q.Bisect()
	r.bisections++
	return c1, c2, r.rec.bisection(q, c1, c2)
}

func (r *oRun) finish(alg string, n int, total float64) *Result {
	return oFinalize(alg, r.parts, n, total, r.bisections, r.rec)
}

// oFinalize sorts parts into ascending ID order (sort.SliceStable, not
// the planner's ID sort) and computes the summary statistics.
func oFinalize(alg string, parts []Part, n int, total float64, bisections int, rec oRecorder) *Result {
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Problem.ID() < parts[j].Problem.ID() })
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

func oValidate(p bisect.Problem, n int) error {
	if err := bisect.ValidateRoot(p); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("core: processor count must be ≥ 1, got %d", n)
	}
	return nil
}

// oracleHF is Algorithm HF (paper Figure 1) over Problem values.
func oracleHF(p bisect.Problem, n int, opt Options) (*Result, error) {
	if err := oValidate(p, n); err != nil {
		return nil, err
	}
	r := newORun(opt, p, n)
	if err := r.heaviestFirst(p, n, 0); err != nil {
		return nil, err
	}
	return r.finish("HF", n, p.Weight()), nil
}

// heaviestFirst expands q into at most procs parts by bisecting a
// heaviest subproblem while parts remain — the whole of HF, and BA-HF's
// inner phase. It selects the maximum by linear scan (ties: smaller ID),
// which also makes oracleHF the queue-less baseline of
// BenchmarkHFHeapVsScan (DESIGN.md §7).
func (r *oRun) heaviestFirst(q bisect.Problem, procs, depth int) error {
	pool := []oNode{{q, depth}}
	done := 0
	for len(pool) > 0 && done+len(pool) < procs {
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
			done++
			continue
		}
		c1, c2, err := r.bisect(nd.p)
		if err != nil {
			return err
		}
		pool = append(pool, oNode{c1, nd.depth + 1}, oNode{c2, nd.depth + 1})
	}
	for _, nd := range pool {
		r.parts = append(r.parts, Part{Problem: nd.p, Procs: 1, Depth: nd.depth})
	}
	return nil
}

// oracleBA is Algorithm BA (paper Figure 3) over Problem values.
func oracleBA(p bisect.Problem, n int, opt Options) (*Result, error) {
	return oracleBARun(p, n, opt, SplitProcs, 0, "BA")
}

// oracleBAHF is Algorithm BA-HF (paper Figure 4) over Problem values.
func oracleBAHF(p bisect.Problem, n int, alpha, kappa float64, opt Options) (*Result, error) {
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if err := bounds.ValidateKappa(kappa); err != nil {
		return nil, err
	}
	return oracleBARun(p, n, opt, SplitProcs, kappa/alpha+1, fmt.Sprintf("BA-HF(κ=%g)", kappa))
}

// oracleBANaive is BA under the NaiveSplitProcs rule.
func oracleBANaive(p bisect.Problem, n int, opt Options) (*Result, error) {
	return oracleBARun(p, n, opt, NaiveSplitProcs, 0, "BA-naive")
}

func oracleBARun(p bisect.Problem, n int, opt Options, rule func(w1, w2 float64, n int) (int, int), cutoff float64, name string) (*Result, error) {
	if err := oValidate(p, n); err != nil {
		return nil, err
	}
	r := newORun(opt, p, n)
	if err := r.split(p, n, 0, rule, cutoff); err != nil {
		return nil, err
	}
	return r.finish(name, n, p.Weight()), nil
}

// split runs the BA recursion on q with procs processors; subproblems
// whose processor count drops below cutoff finish with HF.
func (r *oRun) split(q bisect.Problem, procs, depth int, rule func(w1, w2 float64, n int) (int, int), cutoff float64) error {
	r.rec.procs(q, procs)
	if procs == 1 || !q.CanBisect() {
		r.parts = append(r.parts, Part{Problem: q, Procs: procs, Depth: depth})
		return nil
	}
	if float64(procs) < cutoff {
		return r.heaviestFirst(q, procs, depth)
	}
	c1, c2, err := r.bisect(q)
	if err != nil {
		return err
	}
	if c1.Weight() < c2.Weight() {
		c1, c2 = c2, c1
	}
	n1, n2 := rule(c1.Weight(), c2.Weight(), procs)
	if err := r.split(c1, n1, depth+1, rule, cutoff); err != nil {
		return err
	}
	return r.split(c2, n2, depth+1, rule, cutoff)
}

// oracleHeavier orders indices into parts heaviest first, ties by the
// smaller ID.
func oracleHeavier(parts []oNode, heavy []int) {
	sort.Slice(heavy, func(a, b int) bool {
		pa, pb := parts[heavy[a]].p, parts[heavy[b]].p
		if pa.Weight() != pb.Weight() {
			return pa.Weight() > pb.Weight()
		}
		return pa.ID() < pb.ID()
	})
}

// oraclePHF is the logical Algorithm PHF (paper Figure 2) over Problem
// values, with its phase accounting.
func oraclePHF(p bisect.Problem, n int, alpha float64, opt Options) (*PHFResult, error) {
	if err := oValidate(p, n); err != nil {
		return nil, err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	rec := newORecorder(opt, p)
	total := p.Weight()
	threshold := bounds.HFThreshold(total, alpha, n)
	logN := bounds.CollectiveCost(n)

	res := &PHFResult{PHFStats: PHFStats{Threshold: threshold}}
	parts := []oNode{{p, 0}}

	for {
		var heavy []int
		for i, nd := range parts {
			if nd.p.Weight() > threshold && nd.p.CanBisect() {
				heavy = append(heavy, i)
			}
		}
		if len(heavy) == 0 {
			break
		}
		if room := n - len(parts); len(heavy) > room {
			oracleHeavier(parts, heavy)
			heavy = heavy[:room]
		}
		if len(heavy) == 0 {
			break
		}
		for _, i := range heavy {
			nd := parts[i]
			c1, c2 := nd.p.Bisect()
			res.Phase1Bisections++
			if err := rec.bisection(nd.p, c1, c2); err != nil {
				return nil, err
			}
			parts[i] = oNode{c1, nd.depth + 1}
			parts = append(parts, oNode{c2, nd.depth + 1})
		}
		res.Phase1Rounds++
		res.ModelTime += 2
	}
	res.ModelTime += 2 * logN
	res.GlobalOps += 2

	f := n - len(parts)
	for f > 0 {
		m := 0.0
		for _, nd := range parts {
			if w := nd.p.Weight(); w > m {
				m = w
			}
		}
		cut := m * (1 - alpha)
		var heavy []int
		for i, nd := range parts {
			if nd.p.Weight() >= cut && nd.p.CanBisect() {
				heavy = append(heavy, i)
			}
		}
		res.GlobalOps += 2
		res.ModelTime += 2 * logN
		if len(heavy) == 0 {
			break
		}
		if len(heavy) > f {
			oracleHeavier(parts, heavy)
			heavy = heavy[:f]
			res.GlobalOps++
			res.ModelTime += logN
		}
		for _, i := range heavy {
			nd := parts[i]
			c1, c2 := nd.p.Bisect()
			res.Phase2Bisections++
			if err := rec.bisection(nd.p, c1, c2); err != nil {
				return nil, err
			}
			parts[i] = oNode{c1, nd.depth + 1}
			parts = append(parts, oNode{c2, nd.depth + 1})
		}
		res.ModelTime += 2
		f -= len(heavy)
		res.Phase2Iterations++
		if f > 0 {
			res.GlobalOps++
			res.ModelTime += logN
		}
	}

	out := make([]Part, len(parts))
	for i, nd := range parts {
		out[i] = Part{Problem: nd.p, Procs: 1, Depth: nd.depth}
	}
	res.Result = *oFinalize("PHF", out, n, total, res.Phase1Bisections+res.Phase2Bisections, rec)
	return res, nil
}
