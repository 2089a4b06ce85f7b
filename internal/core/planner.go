package core

import (
	"fmt"
	"unsafe"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/pheap"
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
// interfaces; use Result and the interface algorithms when bisection-tree
// recording or custom Problem implementations are needed.
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
// It owns every buffer the algorithms need — the max-heap, the node arena,
// the explicit recursion stack, the index scratch and the ID-sort scratch
// — and reuses them across calls. The zero value is ready for use. A
// Planner is not safe for concurrent use; keep one per goroutine (the
// serving layer pools them).
//
// The planner runs the same algorithms as HF, BA, BAHF and PHF but over
// value-type flat nodes split by a bisect.Kernel instead of heap-allocated
// Problem values, which removes the two-allocations-per-bisection floor
// the interface model imposes. Parity with the interface algorithms is
// enforced by planner_test.go for every kernel substrate.
type Planner struct {
	heap pheap.Heap
	// bq is the monotone bucket-queue alternative to heap for the HF
	// paths; useBucket selects it (SetBucketQueue). Both produce the
	// identical pop sequence — the choice trades constants, never output
	// (pinned by TestPlannerBucketQueueParity).
	bq        pheap.BucketQueue
	useBucket bool
	arena     []bisect.FlatNode
	stack     []baFrame
	idx       []int32
	// ids is the scratch of the ID sort that finalizes every plan.
	ids idSort
}

// SetBucketQueue selects the queue behind HFInto and BA-HF's HF finish:
// false (the default) is the binary heap, true the monotone bucket
// queue of internal/pheap, which replaces the heap's O(log n) per
// operation with amortized O(1) over α-band weight classes (DESIGN.md
// §13). Output is bit-identical either way; the bucket queue wins above
// roughly N=4096 and costs a one-time ~48 KiB directory.
func (pl *Planner) SetBucketQueue(on bool) { pl.useBucket = on }

// BucketQueueEnabled reports which queue HFInto currently uses.
func (pl *Planner) BucketQueueEnabled() bool { return pl.useBucket }

// Footprint reports the total bytes retained by the planner's reusable
// buffers. Pool stewards (internal/service) use it to decide whether a
// planner has grown too large to keep pooled.
func (pl *Planner) Footprint() int {
	return cap(pl.arena)*int(unsafe.Sizeof(bisect.FlatNode{})) +
		cap(pl.stack)*int(unsafe.Sizeof(baFrame{})) +
		cap(pl.idx)*int(unsafe.Sizeof(int32(0))) +
		pl.heap.Footprint() + pl.bq.Footprint() + pl.ids.footprint()
}

// NewPlanner returns a Planner with buffers pre-sized for plans of about
// n parts. The ID-sort scratch grows on first use instead: pre-sized, it
// raised the plan-large benchmark's peak RSS by 1–4 MiB.
func NewPlanner(n int) *Planner {
	if n < 1 {
		n = 1
	}
	return &Planner{
		arena: make([]bisect.FlatNode, 0, 2*n),
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
	plan.reset("HF", n, root.Weight)
	plan.finalize(&pl.ids, pl.hfFinish(plan, k, root, n))
	return nil
}

// hfExpandHeap is the HF loop shared by HFInto, BA-HF's inner phase and
// the parallel planner's subtree tasks: heaviest-first bisection of root
// into at most procs parts, appended to plan. It reuses the planner's
// arena and binary heap (resetting both first) and returns the bisection
// count. Leftover queue entries become parts via Drain — the safe
// replacement for the old Items-then-Reset aliasing idiom.
//
// hfExpandBucket is its textually parallel twin over the bucket queue.
// Neither an interface value nor a generic type parameter can unify the
// two: both turn every Push/Pop on the hottest loop in the repo into a
// dynamic (dictionary) dispatch, and the Drain callback then escapes to
// the heap — one allocation per BA-HF inner phase, which
// TestPlannerAllocationFree forbids. Two concrete copies keep every call
// devirtualized and every closure on the stack. Keep them in lockstep;
// the bucket-queue parity tests pin their equivalence.
func (pl *Planner) hfExpandHeap(plan *Plan, k bisect.Kernel, root bisect.FlatNode, procs int) int {
	q := &pl.heap
	q.Reset()
	pl.arena = append(pl.arena[:0], root)
	q.Push(pheap.Item{Weight: root.Weight, ID: root.ID, Ref: 0})
	bisections := 0
	done := 0
	for q.Len() > 0 && done+q.Len() < procs {
		it := q.Pop()
		nd := pl.arena[it.Ref]
		if nd.Leaf {
			plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
			done++
			continue
		}
		c1, c2 := k.Split(nd)
		bisections++
		pl.arena = append(pl.arena, c1, c2)
		q.Push(pheap.Item{Weight: c1.Weight, ID: c1.ID, Ref: int32(len(pl.arena) - 2)})
		q.Push(pheap.Item{Weight: c2.Weight, ID: c2.ID, Ref: int32(len(pl.arena) - 1)})
	}
	q.Drain(func(it pheap.Item) {
		plan.Parts = append(plan.Parts, FlatPart{Node: pl.arena[it.Ref], Procs: 1})
	})
	return bisections
}

// hfExpandBucket mirrors hfExpandHeap over the monotone bucket queue.
// See the comment there for why the duplication is load-bearing.
func (pl *Planner) hfExpandBucket(plan *Plan, k bisect.Kernel, root bisect.FlatNode, procs int) int {
	q := &pl.bq
	q.Reset()
	pl.arena = append(pl.arena[:0], root)
	q.Push(pheap.Item{Weight: root.Weight, ID: root.ID, Ref: 0})
	bisections := 0
	done := 0
	for q.Len() > 0 && done+q.Len() < procs {
		it := q.Pop()
		nd := pl.arena[it.Ref]
		if nd.Leaf {
			plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
			done++
			continue
		}
		c1, c2 := k.Split(nd)
		bisections++
		pl.arena = append(pl.arena, c1, c2)
		q.Push(pheap.Item{Weight: c1.Weight, ID: c1.ID, Ref: int32(len(pl.arena) - 2)})
		q.Push(pheap.Item{Weight: c2.Weight, ID: c2.ID, Ref: int32(len(pl.arena) - 1)})
	}
	q.Drain(func(it pheap.Item) {
		plan.Parts = append(plan.Parts, FlatPart{Node: pl.arena[it.Ref], Procs: 1})
	})
	return bisections
}

// BAInto runs Algorithm BA (paper Figure 3) over the flat substrate k,
// writing the partition into plan. The recursion is an explicit stack so
// the steady-state path allocates nothing.
func (pl *Planner) BAInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	plan.reset("BA", n, root.Weight)
	plan.finalize(&pl.ids, pl.baExpand(plan, k, root, int32(n), 0))
	return nil
}

// baExpand runs the BA recursion (explicit stack) from the frame
// (nd, procs), appending parts to plan and returning the bisection
// count. A cutoff > 1 turns it into the BA-HF loop: frames whose
// processor count drops below the cutoff finish with the HF inner phase
// instead of further BA splits. It is the shared engine behind BAInto,
// BAHFInto and the parallel planner's subtree tasks.
func (pl *Planner) baExpand(plan *Plan, k bisect.Kernel, nd bisect.FlatNode, procs int32, cutoff float64) int {
	bisections := 0
	pl.stack = append(pl.stack[:0], baFrame{nd, procs})
	for len(pl.stack) > 0 {
		fr := pl.stack[len(pl.stack)-1]
		pl.stack = pl.stack[:len(pl.stack)-1]
		if fr.procs == 1 || fr.nd.Leaf {
			plan.Parts = append(plan.Parts, FlatPart{Node: fr.nd, Procs: fr.procs})
			continue
		}
		if float64(fr.procs) < cutoff {
			bisections += pl.hfFinish(plan, k, fr.nd, int(fr.procs))
			continue
		}
		c1, c2 := k.Split(fr.nd)
		bisections++
		if c1.Weight < c2.Weight {
			c1, c2 = c2, c1
		}
		n1, n2 := SplitProcs(c1.Weight, c2.Weight, int(fr.procs))
		// Light child pushed first so the heavy child is processed next,
		// mirroring the interface BA's recursion order.
		pl.stack = append(pl.stack, baFrame{c2, int32(n2)}, baFrame{c1, int32(n1)})
	}
	return bisections
}

// BAHFInto runs Algorithm BA-HF (paper Figure 4) over the flat substrate
// k: BA-style processor splitting while the processor count is at least
// κ/α + 1, HF below. It writes the partition into plan.
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
	plan.finalize(&pl.ids, pl.baExpand(plan, k, root, int32(n), kappa/alpha+1))
	return nil
}

// hfFinish runs heaviest-first expansion of q into at most procs parts —
// the whole of Algorithm HF, and the inner phase of BA-HF — appending
// parts to plan and returning the bisection count. It reuses the
// planner's selected queue and arena, resetting them first.
func (pl *Planner) hfFinish(plan *Plan, k bisect.Kernel, q bisect.FlatNode, procs int) int {
	if pl.useBucket {
		return pl.hfExpandBucket(plan, k, q, procs)
	}
	return pl.hfExpandHeap(plan, k, q, procs)
}

// PHFInto runs the logical Algorithm PHF (paper Figure 2) over the flat
// substrate k, writing the partition into plan. It performs the identical
// bisections in the identical synchronous rounds as PHF, so its output
// matches PHF's part for part (and HF's, under PHF's tie caveat); it does
// not account model time — use PHF when phase accounting is wanted.
func (pl *Planner) PHFInto(plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int, alpha float64) error {
	if err := plannerValidate(root, n); err != nil {
		return err
	}
	if err := bounds.ValidateAlpha(alpha); err != nil {
		return err
	}
	plan.reset("PHF", n, root.Weight)
	threshold := bounds.HFThreshold(root.Weight, alpha, n)
	bisections := 0

	parts := append(pl.arena[:0], root)

	// Phase one: synchronous rounds bisecting everything above threshold.
	for {
		heavy := pl.idx[:0]
		for i := range parts {
			if parts[i].Weight > threshold && !parts[i].Leaf {
				heavy = append(heavy, int32(i))
			}
		}
		// Same overflow guard as PHF: a mis-declared α must degrade to
		// bisecting only the heaviest subproblems that still fit.
		if room := n - len(parts); len(heavy) > room {
			sortIdxByWeight(parts, heavy)
			heavy = heavy[:room]
		}
		pl.idx = heavy[:0]
		if len(heavy) == 0 {
			break
		}
		for _, i := range heavy {
			nd := parts[i]
			c1, c2 := k.Split(nd)
			bisections++
			parts[i] = c1
			parts = append(parts, c2)
		}
	}

	// Phase two: iterate until no processor remains free.
	f := n - len(parts)
	for f > 0 {
		m := 0.0
		for i := range parts {
			if parts[i].Weight > m {
				m = parts[i].Weight
			}
		}
		cut := m * (1 - alpha)
		heavy := pl.idx[:0]
		for i := range parts {
			if parts[i].Weight >= cut && !parts[i].Leaf {
				heavy = append(heavy, int32(i))
			}
		}
		if len(heavy) == 0 {
			pl.idx = heavy
			break
		}
		if len(heavy) > f {
			sortIdxByWeight(parts, heavy)
			heavy = heavy[:f]
		}
		pl.idx = heavy[:0]
		for _, i := range heavy {
			nd := parts[i]
			c1, c2 := k.Split(nd)
			bisections++
			parts[i] = c1
			parts = append(parts, c2)
		}
		f -= len(heavy)
	}

	pl.arena = parts
	for _, nd := range parts {
		plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
	}
	plan.finalize(&pl.ids, bisections)
	return nil
}

// sortIdxByWeight heap-sorts the index slice so the referenced nodes come
// heaviest first, ties broken by smaller ID — the selection order PHF's
// overflow guard and final iteration require. Hand-rolled rather than
// sort.Slice, whose comparator closure escapes, to keep PHFInto
// allocation-free.
func sortIdxByWeight(parts []bisect.FlatNode, idx []int32) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftIdx(parts, idx, i, n)
	}
	for end := n - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		siftIdx(parts, idx, 0, end)
	}
}

// idxLess orders descending weight, then ascending ID (the "heavier
// first" total order). siftIdx builds a min-heap of that order so the
// heapsort leaves idx sorted heaviest-first.
func idxLess(parts []bisect.FlatNode, a, b int32) bool {
	pa, pb := &parts[a], &parts[b]
	if pa.Weight != pb.Weight {
		return pa.Weight > pb.Weight
	}
	return pa.ID < pb.ID
}

func siftIdx(parts []bisect.FlatNode, idx []int32, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		last := l
		if r := l + 1; r < n && idxLess(parts, idx[l], idx[r]) {
			last = r
		}
		if !idxLess(parts, idx[i], idx[last]) {
			return
		}
		idx[i], idx[last] = idx[last], idx[i]
		i = last
	}
}
