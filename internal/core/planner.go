package core

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
)

// FlatPart is one subproblem of a Plan: a flat node plus the processor
// count responsible for it.
type FlatPart struct {
	Node  bisect.FlatNode
	Procs int32
}

// Plan is the reusable result buffer of the allocation-free planner. A
// Plan filled by one planning call may be passed to the next; its Parts
// backing array is truncated and reused, so a caller that keeps one Plan
// per worker reaches a steady state in which planning performs no heap
// allocations at all (the property tracked by TestPlannerAllocationFree
// and the BENCH_core.json suite; see DESIGN.md §10).
//
// Plan mirrors Result but holds value-type FlatParts instead of Problem
// interfaces. Every algorithm in this package fills a Plan: HF, BA, BAHF
// and PHF plan a custom Problem through NewProblemKernel and convert the
// Plan into a Result (with the bisection tree, when recorded).
type Plan struct {
	// Algorithm names the algorithm that produced the plan ("HF", "BA",
	// "BA-HF", "PHF").
	Algorithm string
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
	// Parts are the computed subproblems in ascending ID order. The slice
	// is owned by the Plan and overwritten by the next planning call that
	// receives this Plan.
	Parts []FlatPart
}

// reset prepares the plan for refilling, retaining the Parts storage.
func (p *Plan) reset(alg string, n int, total float64) {
	p.Algorithm = alg
	p.N = n
	p.Total = total
	p.Max = 0
	p.Ratio = 0
	p.Bisections = 0
	p.MaxDepth = 0
	p.Parts = p.Parts[:0]
}

// finalize puts the parts in ascending ID order with the planner's ID
// sort s (linear for hash-mixed IDs, allocation-free once s has grown;
// DESIGN.md §10) and computes the summary statistics.
func (p *Plan) finalize(s *idSort, bisections int) {
	ids := s.gather(len(p.Parts))
	maxW := 0.0
	maxD := int32(0)
	for i := range p.Parts {
		nd := &p.Parts[i].Node
		ids[i] = nd.ID
		if nd.Weight > maxW {
			maxW = nd.Weight
		}
		if nd.Depth > maxD {
			maxD = nd.Depth
		}
	}
	permute(p.Parts, s.order(ids))
	p.Max = maxW
	p.MaxDepth = int(maxD)
	p.Ratio = bisect.Ratio(maxW, p.Total, p.N)
	p.Bisections = bisections
}

// baFrame is one pending subtree of the explicit BA/BA-HF recursion stack.
type baFrame struct {
	nd    bisect.FlatNode
	procs int32
}

// Planner plans partitions without allocating on the steady-state path.
// It owns every buffer the algorithms need — the HF queue, the node arena,
// the explicit recursion stack, the index scratch and the ID-sort scratch
// — and reuses them across calls. The zero value is ready for use. A
// Planner is not safe for concurrent use; keep one per goroutine (the
// serving layer pools them).
//
// The planner is the package's one implementation of HF, BA, BA-HF and
// PHF. It runs over value-type flat nodes split by a bisect.Kernel, so a
// kernel with flat state (synthetic, fixed, list) plans without
// allocating; HF, BA, BAHF and PHF reach it for any Problem through the
// problem kernel. Parity with the Problem-interface recursions of the
// paper, kept in oracle_test.go, is enforced for every substrate.
//
// A planner's worker count is fixed when it is built: NewPlanner and the
// zero value have one, so a kernel never sees concurrent Splits; one
// built by NewParallelPlanner fans large BA and BA-HF plans out across
// its workers (fanout.go).
type Planner struct {
	// queue is HF's heaviest-first queue (DESIGN.md §13).
	queue hfQueue
	// arena holds PHF's parts.
	arena []bisect.FlatNode
	stack []baFrame
	idx   []int32
	// ids is the scratch of the ID sort that finalizes every plan.
	ids idSort

	// opt holds the worker count (zero means one) and the metrics
	// registry of the fan-out.
	opt ParallelOptions
	// workers and tasks are the fan-out's per-worker state and subtree
	// queue, grown on the first fan-out.
	workers []*pworker
	tasks   []subtreeTask
	// fanned records whether the last plan fanned out.
	fanned bool
}

// SetBucketQueue has no effect: HF has one queue.
//
// Deprecated: there is no HF queue to select.
func (pl *Planner) SetBucketQueue(bool) {}

// Footprint reports the total bytes retained by the planner's reusable
// buffers, its workers' included. Pool stewards (internal/service) use
// it to decide whether a planner has grown too large to keep pooled.
func (pl *Planner) Footprint() int {
	f := cap(pl.arena)*int(unsafe.Sizeof(bisect.FlatNode{})) +
		cap(pl.stack)*int(unsafe.Sizeof(baFrame{})) +
		cap(pl.idx)*int(unsafe.Sizeof(int32(0))) +
		cap(pl.tasks)*int(unsafe.Sizeof(subtreeTask{})) +
		pl.queue.footprint() + pl.ids.footprint()
	for _, pw := range pl.workers {
		f += pw.pl.Footprint() + cap(pw.plan.Parts)*int(unsafe.Sizeof(FlatPart{}))
	}
	return f
}

// NewPlanner returns a Planner with buffers pre-sized for plans of about
// n parts. The ID-sort scratch grows on first use instead: pre-sized, it
// raised the plan-large benchmark's peak RSS by 1–4 MiB.
func NewPlanner(n int) *Planner {
	if n < 1 {
		n = 1
	}
	return &Planner{
		arena: make([]bisect.FlatNode, 0, n),
		stack: make([]baFrame, 0, 64),
		idx:   make([]int32, 0, n),
	}
}

func plannerValidate(root bisect.FlatNode, n int) error {
	if err := bisect.ValidateFlatRoot(root); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("core: processor count must be ≥ 1, got %d", n)
	}
	return nil
}

// HFInto runs Algorithm HF (paper Figure 1) over the flat substrate k,
// writing the partition into plan.
func (pl *Planner) HFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	pl.sequential(n)
	plan.reset("HF", n, root.Weight)
	plan.finalize(&pl.ids, pl.hfExpand(plan, k, root, n))
	return nil
}

// hfExpand runs heaviest-first expansion of root into at most procs
// parts — the whole of Algorithm HF, and the inner phase of BA-HF —
// appending parts to plan and returning the bisection count. It resets
// the planner's queue first; the nodes still queued at the end become
// parts.
func (pl *Planner) hfExpand(plan *Plan, k bisect.Kernel, root bisect.FlatNode, procs int) int {
	lk := lazyOf(k)
	q := &pl.queue
	q.reset()
	q.push(root)
	bisections := 0
	done := 0
	for q.len() > 0 && done+q.len() < procs {
		nd := q.pop()
		if !splittable(lk, &nd) {
			plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
			done++
			continue
		}
		c1, c2 := k.Split(nd)
		bisections++
		q.push(c1)
		q.push(c2)
	}
	q.drainInto(plan)
	return bisections
}

// BAInto runs Algorithm BA (paper Figure 3) over the flat substrate k,
// writing the partition into plan. The recursion is an explicit stack so
// the steady-state path allocates nothing; a large plan on a planner
// with workers fans its subtrees out (fanout.go).
func (pl *Planner) BAInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	plan.reset("BA", n, root.Weight)
	pl.baPlan(plan, k, root, n, 0)
	return nil
}

// baExpand runs the BA recursion (explicit stack) from the frame
// (nd, procs), appending parts to plan and returning the bisection
// count. A cutoff > 1 turns it into the BA-HF loop: frames whose
// processor count drops below the cutoff finish with the HF inner phase
// instead of further BA splits. A grain > 0 makes it the fan-out's top
// expansion: frames of at most grain processors, or below the cutoff,
// become subtree tasks in pl.tasks instead of being planned. It is the
// shared engine behind BAInto, BAHFInto and the fan-out.
func (pl *Planner) baExpand(plan *Plan, k bisect.Kernel, nd bisect.FlatNode, procs int32, cutoff float64, grain int32) int {
	lk := lazyOf(k)
	bisections := 0
	pl.stack = append(pl.stack[:0], baFrame{nd, procs})
	for len(pl.stack) > 0 {
		fr := pl.stack[len(pl.stack)-1]
		pl.stack = pl.stack[:len(pl.stack)-1]
		if fr.procs == 1 || !splittable(lk, &fr.nd) {
			plan.Parts = append(plan.Parts, FlatPart{Node: fr.nd, Procs: fr.procs})
			continue
		}
		if grain > 0 && (fr.procs <= grain || float64(fr.procs) < cutoff) {
			pl.tasks = append(pl.tasks, subtreeTask{fr.nd, fr.procs})
			continue
		}
		if float64(fr.procs) < cutoff {
			bisections += pl.hfExpand(plan, k, fr.nd, int(fr.procs))
			continue
		}
		c1, c2 := k.Split(fr.nd)
		bisections++
		if c1.Weight < c2.Weight {
			c1, c2 = c2, c1
		}
		n1, n2 := SplitProcs(c1.Weight, c2.Weight, int(fr.procs))
		// Light child pushed first so the heavy child is processed next:
		// the recursion order of the paper's BA, which the bisection
		// tree records.
		pl.stack = append(pl.stack, baFrame{c2, int32(n2)}, baFrame{c1, int32(n1)})
	}
	return bisections
}

// BAHFInto runs Algorithm BA-HF (paper Figure 4) over the flat substrate
// k: BA-style processor splitting while the processor count is at least
// κ/α + 1, HF below. It writes the partition into plan, fanning out
// like BAInto; the HF finishing phases stay inside independent subtrees.
func (pl *Planner) BAHFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha, kappa float64) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return err
	}
	if err := bounds.ValidateKappa(kappa); err != nil {
		return err
	}
	plan.reset("BA-HF", n, root.Weight)
	pl.baPlan(plan, k, root, n, kappa/alpha+1)
	return nil
}

// PHFInto runs the logical Algorithm PHF (paper Figure 2) over the flat
// substrate k, writing the partition into plan. It performs the
// identical bisections in the identical synchronous rounds as a parallel
// machine would, so its output is HF's under PHF's tie caveat (see PHF);
// use PHF when the phase accounting is wanted.
func (pl *Planner) PHFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
	return pl.phfInto(plan, k, root, n, alpha, nil)
}

// phfInto is PHFInto that also stores the run's phase accounting in the
// paper's cost model into out, when non-nil.
func (pl *Planner) phfInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64, out *PHFStats) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return err
	}
	pl.sequential(n)
	plan.reset("PHF", n, root.Weight)
	lk := lazyOf(k)
	threshold := bounds.HFThreshold(root.Weight, alpha, n)
	logN := bounds.CollectiveCost(n)
	st := PHFStats{Threshold: threshold}

	parts := append(pl.arena[:0], root)

	// Phase one: synchronous rounds bisecting everything above threshold.
	for {
		heavy := pl.idx[:0]
		for i := range parts {
			if parts[i].Weight > threshold && splittable(lk, &parts[i]) {
				heavy = append(heavy, int32(i))
			}
		}
		// For a correct α and a conforming problem class, phase one
		// cannot overshoot n parts (every bisected node is an internal
		// node of HF's tree, of which there are at most n−1). Guard
		// anyway so that a mis-declared α degrades gracefully instead of
		// overflowing: if the round would exceed n parts, bisect only the
		// heaviest ones that still fit, exactly as HF would prioritise
		// them.
		if room := n - len(parts); len(heavy) > room {
			sortHeavierFirst(parts, heavy)
			heavy = heavy[:room]
		}
		pl.idx = heavy[:0]
		if len(heavy) == 0 {
			break
		}
		for _, i := range heavy {
			c1, c2 := k.Split(parts[i])
			parts[i] = c1
			parts = append(parts, c2)
		}
		st.Phase1Rounds++
		st.Phase1Bisections += len(heavy)
		// One bisection plus one transmission per round of the local chains.
		st.ModelTime += 2
	}
	// Barrier ending phase one (step (b)), plus the free-processor count
	// and numbering (step (c)).
	st.ModelTime += 2 * logN
	st.GlobalOps += 2

	// Phase two: iterate until no processor remains free.
	f := n - len(parts)
	for f > 0 {
		// Step (d): maximum weight of remaining subproblems (global).
		m := 0.0
		for i := range parts {
			if parts[i].Weight > m {
				m = parts[i].Weight
			}
		}
		// Step (e): processors whose subproblem weighs ≥ m(1−α) (global).
		cut := m * (1 - alpha)
		heavy := pl.idx[:0]
		for i := range parts {
			if parts[i].Weight >= cut && splittable(lk, &parts[i]) {
				heavy = append(heavy, int32(i))
			}
		}
		st.GlobalOps += 2
		st.ModelTime += 2 * logN
		if len(heavy) == 0 {
			// Every subproblem at the maximum weight is indivisible; the
			// remaining processors stay idle, as the model permits.
			pl.idx = heavy
			break
		}
		if len(heavy) > f {
			// Step (3b): select the f heaviest subproblems (global
			// selection, only ever needed in the final iteration).
			sortHeavierFirst(parts, heavy)
			heavy = heavy[:f]
			st.GlobalOps++
			st.ModelTime += logN
		}
		pl.idx = heavy[:0]
		for _, i := range heavy {
			c1, c2 := k.Split(parts[i])
			parts[i] = c1
			parts = append(parts, c2)
		}
		f -= len(heavy)
		st.Phase2Bisections += len(heavy)
		st.Phase2Iterations++
		// Bisection and transmission happen concurrently across processors.
		st.ModelTime += 2
		if f > 0 {
			// Step (h): barrier between iterations.
			st.GlobalOps++
			st.ModelTime += logN
		}
	}

	pl.arena = parts
	for _, nd := range parts {
		plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
	}
	plan.finalize(&pl.ids, st.Phase1Bisections+st.Phase2Bisections)
	if out != nil {
		*out = st
	}
	return nil
}

// lazyOf returns k's on-demand leaf test, or nil for an eager kernel,
// whose FlatNode.Leaf is authoritative.
func lazyOf(k bisect.Kernel) bisect.LazyKernel {
	lk, _ := k.(bisect.LazyKernel)
	return lk
}

// splittable reports whether nd may be split: it is not a known leaf
// and, for a lazy kernel, CanSplit accepts it. Every planner site that
// decides whether to split a node asks it, and only there, so a lazy
// kernel is asked exactly when the paper's algorithms test CanBisect.
//
// It takes a pointer so that an eager kernel's hot loops read one byte
// of the node instead of copying all of it.
func splittable(lk bisect.LazyKernel, nd *bisect.FlatNode) bool {
	return !nd.Leaf && (lk == nil || lk.CanSplit(*nd))
}

// sortHeavierFirst sorts the index slice so the referenced nodes come
// heaviest first, ties broken by smaller ID — the selection order PHF's
// overflow guard and final iteration require.
func sortHeavierFirst(parts []bisect.FlatNode, idx []int32) {
	slices.SortFunc(idx, func(a, b int32) int {
		return heavierFirst(parts[a].Weight, parts[b].Weight, parts[a].ID, parts[b].ID)
	})
}

// heavierFirst compares two nodes by descending weight, then ascending
// ID: a total order over unique IDs, so every correct sort produces the
// same sequence.
func heavierFirst(wa, wb float64, ida, idb uint64) int {
	switch {
	case wa > wb:
		return -1
	case wa < wb:
		return 1
	}
	return cmp.Compare(ida, idb)
}
