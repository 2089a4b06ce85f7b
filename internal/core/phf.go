package core

import (
	"sort"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
)

// PHFResult augments Result with the phase accounting of Algorithm PHF.
type PHFResult struct {
	Result
	// Threshold is the weight w(p)·r_α/N separating the two phases.
	Threshold float64
	// Phase1Rounds counts the synchronous bisection rounds of phase one
	// (each round: every subproblem heavier than the threshold is bisected
	// concurrently). It is bounded by bounds.PHFPhase1Depth.
	Phase1Rounds int
	// Phase1Bisections counts the bisections performed in phase one.
	Phase1Bisections int
	// Phase2Iterations counts phase-two iterations (each involving global
	// communication). It is bounded by bounds.PHFPhase2Iterations.
	Phase2Iterations int
	// Phase2Bisections counts the bisections performed in phase two.
	Phase2Bisections int
	// ModelTime is the running time in the paper's cost model: one unit
	// per bisection and per transmission, ⌈log2 N⌉ per global operation.
	ModelTime int64
	// GlobalOps counts global communication operations (reductions,
	// broadcasts, barriers, selections).
	GlobalOps int64
}

// PHF implements Algorithm PHF (paper Figure 2), the parallelisation of HF
// that provably computes the identical partition (Theorem 3). This function
// is the *logical* round-structured execution: it performs the same
// bisections in the same synchronous rounds a parallel machine would and
// accounts model time and global operations, but runs in one goroutine.
// internal/machine replays the identical schedule on the simulated machine
// with explicit processors and messages, and internal/dist runs it over a
// real message-passing cluster.
//
// Phase one repeatedly bisects, in parallel rounds, every subproblem heavier
// than the threshold w(p)·r_α/N — such subproblems are certainly bisected by
// HF. Phase two then performs synchronized iterations: determine the maximum
// weight m among the subproblems, bisect (up to the number of remaining free
// processors) all subproblems with weight ≥ m·(1−α), and repeat until no
// processor is free. Both phases need the class parameter α.
//
// Tie caveat: the identity with HF is exact whenever subproblem weights are
// pairwise distinct, which holds almost surely under the paper's continuous
// stochastic model. With exactly tied weights (e.g. the Fixed adversarial
// class) HF's ID tie-break and PHF's round structure can resolve ties
// differently; PHF's output is then still *a* valid HF output — every PHF
// bisection sequence can be reordered into a heaviest-first sequence under
// some tie order — but not necessarily the one core.HF's deterministic
// tie-break produces.
func PHF(p bisect.Problem, n int, alpha float64, opt Options) (*PHFResult, error) {
	if err := validate(p, n); err != nil {
		return nil, err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	rec := newRecorder(opt, p)
	total := p.Weight()
	threshold := bounds.HFThreshold(total, alpha, n)
	logN := bounds.CollectiveCost(n)

	res := &PHFResult{Threshold: threshold}
	parts := []node{{p, 0}}

	// Phase one: synchronous rounds bisecting everything above threshold.
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
		// For a correct α and a conforming problem class, phase one cannot
		// overshoot n parts (every bisected node is an internal node of
		// HF's tree, of which there are at most n−1). Guard anyway so that
		// a mis-declared α degrades gracefully instead of overflowing: if
		// the round would exceed n parts, bisect only the heaviest ones
		// that still fit, exactly as HF would prioritise them.
		if room := n - len(parts); len(heavy) > room {
			sort.Slice(heavy, func(a, b int) bool {
				pa, pb := parts[heavy[a]].p, parts[heavy[b]].p
				if pa.Weight() != pb.Weight() {
					return pa.Weight() > pb.Weight()
				}
				return pa.ID() < pb.ID()
			})
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
			parts[i] = node{c1, nd.depth + 1}
			parts = append(parts, node{c2, nd.depth + 1})
		}
		res.Phase1Rounds++
		// One bisection plus one transmission per round of the local chains.
		res.ModelTime += 2
	}
	// Barrier ending phase one (step (b)), plus the free-processor count and
	// numbering (step (c)).
	res.ModelTime += 2 * logN
	res.GlobalOps += 2

	// Phase two: iterate until no processor remains free.
	f := n - len(parts)
	for f > 0 {
		// Step (d): maximum weight of remaining subproblems (global).
		m := 0.0
		for _, nd := range parts {
			if w := nd.p.Weight(); w > m {
				m = w
			}
		}
		// Step (e): processors whose subproblem weighs ≥ m(1−α) (global).
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
			// Every subproblem at the maximum weight is indivisible; the
			// remaining processors stay idle, as the model permits.
			break
		}
		h := len(heavy)
		if h > f {
			// Step (3b): select the f heaviest subproblems (global
			// selection, only ever needed in the final iteration).
			sort.Slice(heavy, func(a, b int) bool {
				pa, pb := parts[heavy[a]].p, parts[heavy[b]].p
				if pa.Weight() != pb.Weight() {
					return pa.Weight() > pb.Weight()
				}
				return pa.ID() < pb.ID()
			})
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
			parts[i] = node{c1, nd.depth + 1}
			parts = append(parts, node{c2, nd.depth + 1})
		}
		// Bisection and transmission happen concurrently across processors.
		res.ModelTime += 2
		f -= len(heavy)
		res.Phase2Iterations++
		if f > 0 {
			// Step (h): barrier between iterations.
			res.GlobalOps++
			res.ModelTime += logN
		}
	}

	out := make([]Part, len(parts))
	for i, nd := range parts {
		out[i] = Part{Problem: nd.p, Procs: 1, Depth: nd.depth}
	}
	fin := finalize("PHF", out, n, total, res.Phase1Bisections+res.Phase2Bisections, rec)
	res.Result = *fin
	return res, nil
}
