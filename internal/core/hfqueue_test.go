package core

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// queueUnderTest is the queue FuzzHFQueue drives.
type queueUnderTest = hfQueue

// refQueue is container/heap over HF's order, heavierFirst: the
// reference FuzzHFQueue pops against.
type refQueue []bisect.FlatNode

func (h refQueue) Len() int { return len(h) }
func (h refQueue) Less(i, j int) bool {
	return heavierFirst(h[i].Weight, h[j].Weight, h[i].ID, h[j].ID) < 0
}
func (h refQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refQueue) Push(x any)   { *h = append(*h, x.(bisect.FlatNode)) }
func (h *refQueue) Pop() any {
	old := *h
	nd := old[len(old)-1]
	*h = old[:len(old)-1]
	return nd
}

// queueScript decodes a FuzzHFQueue input. Each op is one byte; pushes
// read two more (weight class and ID class), splits one (the split
// fraction). Missing operand bytes read as zero.
type queueScript struct {
	data []byte
	// last is the weight of the last popped node, the anchor of the
	// tie, heavier and lighter weight classes.
	last   float64
	nextID uint64
}

func (s *queueScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// weight draws a weight: the special values the queue must order
// (zeros of both signs, negatives, subnormals, infinities), exact ties
// with the last pop or a constant, pushes heavier and lighter than the
// last pop, and raw bit patterns. NaN is out of scope (there is no total
// order over it) and reads as 1.
func (s *queueScript) weight() float64 {
	c := s.byte()
	var w float64
	switch c % 16 {
	case 0:
		w = 0
	case 1:
		w = math.Copysign(0, -1)
	case 2:
		w = -1 - float64(c>>4)
	case 3:
		w = math.SmallestNonzeroFloat64 * float64(1+c>>4)
	case 4:
		w = math.Float64frombits(1<<52 - 1 - uint64(c>>4))
	case 5:
		w = math.Inf(1)
	case 6:
		w = math.MaxFloat64
	case 7:
		w = s.last
	case 8:
		w = s.last*2 + 1
	case 9:
		w = s.last * float64(c>>4) / 16
	case 10:
		w = 2.5
	case 11:
		w = math.Inf(-1)
	default:
		var b [8]byte
		for i := range b {
			b[i] = s.byte()
		}
		w = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	if math.IsNaN(w) {
		w = 1
	}
	return w
}

// id draws a node ID: small IDs (which collide in weight ties with
// every order) or fresh hash-mixed ones, as the kernels produce.
func (s *queueScript) id() uint64 {
	if c := s.byte(); c < 128 {
		return uint64(c)
	}
	s.nextID++
	return xrand.Mix(s.nextID, 0x9e3779b97f4a7c15)
}

// runHFQueueScript drives the queue under test and refQueue with one
// script, checking every pop, length and drain against the reference.
func runHFQueueScript(t *testing.T, data []byte) {
	s := &queueScript{data: data}
	var q queueUnderTest
	var ref refQueue
	live := map[uint64]bool{}
	var plan Plan
	push := func(nd bisect.FlatNode) {
		if live[nd.ID] {
			return // IDs are unique among live nodes, as in a plan
		}
		live[nd.ID] = true
		nd.S0 = ^nd.ID
		heap.Push(&ref, nd)
		q.push(nd)
	}
	pop := func(op int) bisect.FlatNode {
		want := heap.Pop(&ref).(bisect.FlatNode)
		got := q.pop()
		if got != want {
			t.Fatalf("op %d: popped %+v, container/heap popped %+v", op, got, want)
		}
		delete(live, want.ID)
		s.last = want.Weight
		return want
	}
	drain := func(op int) {
		plan.Parts = plan.Parts[:0]
		q.drainInto(&plan)
		got := make([]bisect.FlatNode, len(plan.Parts))
		for i := range plan.Parts {
			if plan.Parts[i].Procs != 1 {
				t.Fatalf("op %d: drained part with %d procs", op, plan.Parts[i].Procs)
			}
			got[i] = plan.Parts[i].Node
		}
		want := []bisect.FlatNode(ref)
		byID := func(a, b bisect.FlatNode) int { return cmp.Compare(a.ID, b.ID) }
		slices.SortFunc(got, byID)
		slices.SortFunc(want, byID)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: drained %d nodes %v, want %d nodes %v", op, len(got), got, len(want), want)
		}
		ref = ref[:0]
		clear(live)
	}
	for op := 0; len(s.data) > 0; op++ {
		switch c := s.byte(); c % 8 {
		case 0, 1, 2:
			push(bisect.FlatNode{Weight: s.weight(), ID: s.id()})
		case 3:
			// An HF step: pop the heaviest node and push its two
			// children. Fraction 128 splits into exact halves, a tie.
			f := float64(s.byte()) / 256
			if ref.Len() == 0 {
				break
			}
			nd := pop(op)
			heavy := nd.Weight * math.Max(f, 1-f)
			c1 := bisect.FlatNode{Weight: heavy, ID: s.id(), Depth: nd.Depth + 1}
			c2 := bisect.FlatNode{Weight: nd.Weight - heavy, ID: s.id(), Depth: nd.Depth + 1}
			if math.IsNaN(c2.Weight) { // Inf − Inf
				c2.Weight = 0
			}
			push(c1)
			push(c2)
		case 4, 5:
			// Pop a run of up to eight nodes, so a queue grown past the
			// small-queue threshold shrinks back below it.
			for k := 0; k <= int(c>>5) && ref.Len() > 0; k++ {
				pop(op)
			}
		case 6:
			q.reset()
			ref = ref[:0]
			clear(live)
			s.last = 0
		case 7:
			drain(op)
		}
		if q.len() != ref.Len() {
			t.Fatalf("op %d: queue holds %d nodes, container/heap %d", op, q.len(), ref.Len())
		}
	}
	drain(-1)
}

// FuzzHFQueue is the differential pin of HF's queue: an arbitrary
// script of pushes, pops, HF split steps, resets and drains must pop
// exactly what container/heap pops under the same order (weight desc,
// ID asc) and drain exactly the nodes it still holds. The seed corpus in
// testdata/fuzz/FuzzHFQueue covers exact weight ties, zero, negative,
// subnormal and infinite weights, pushes heavier than the last pop, a
// reset mid-run and queues that grow past the small-queue threshold and
// shrink below it again.
func FuzzHFQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 200, 0, 10, 5, 0, 10, 9, 4})
	f.Fuzz(runHFQueueScript)
}

// verify checks every invariant of q: in small mode nothing is bucketed;
// in radix mode every bucketed node sits in the bucket its key maps to
// and no lower than the last extracted key, every chunk in a bucket
// holds a node, the occupied bits match the buckets, every side key is
// below the last extracted key, and the node count adds up. It costs
// O(n).
func verify(q *hfQueue) bool {
	if !q.radix {
		return q.n <= smallQueue && len(q.side) == 0 && q.occupied == [len(q.occupied)]uint64{}
	}
	count := len(q.side)
	for i := range q.side {
		if !keyOf(&q.side[i]).less(q.last) {
			return false
		}
	}
	for b, head := range q.buckets {
		if (q.occupied[b>>6]>>(b&63)&1 == 1) != (head != nil) {
			return false
		}
		for c := head; c != nil; c = c.next {
			if c.n == 0 {
				return false
			}
			for j := range c.n {
				k := keyOf(&c.nodes[j])
				if k.less(q.last) || q.bucketOf(k) != b {
					return false
				}
			}
			count += int(c.n)
		}
	}
	return count == q.n
}

// queueModes runs f on an empty queue and on one past the small-queue
// threshold, which holds smallQueue+1 nodes of weight −Inf that pop after
// every node f pushes.
func queueModes(t *testing.T, f func(t *testing.T, q *hfQueue)) {
	for _, name := range []string{"small", "radix"} {
		t.Run(name, func(t *testing.T) {
			var q hfQueue
			if name == "radix" {
				for i := range smallQueue + 1 {
					q.push(bisect.FlatNode{Weight: math.Inf(-1), ID: 1<<40 + uint64(i)})
				}
			}
			f(t, &q)
		})
	}
}

// popIDs pops k nodes and returns their IDs.
func popIDs(q *hfQueue, k int) []uint64 {
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = q.pop().ID
	}
	return ids
}

func TestHFQueueEmpty(t *testing.T) {
	var q hfQueue
	if q.len() != 0 {
		t.Fatal("zero-value queue not empty")
	}
	q.push(bisect.FlatNode{Weight: 1, ID: 1})
	if q.len() != 1 || q.pop().ID != 1 || q.len() != 0 {
		t.Fatal("zero value unusable after first push")
	}
}

func TestHFQueuePushPopOrder(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		for i, w := range []float64{1, 5, 3, 4} {
			q.push(bisect.FlatNode{Weight: w, ID: uint64(i)})
		}
		for i, w := range []float64{5, 4, 3, 1} {
			if got := q.pop().Weight; got != w {
				t.Fatalf("pop %d: got %v want %v", i, got, w)
			}
		}
	})
}

// TestHFQueueEqualWeightsPopByID pins that nodes of one weight pop in
// ascending ID order, whatever their push order.
func TestHFQueueEqualWeightsPopByID(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		for _, id := range []uint64{30, 10, 20} {
			q.push(bisect.FlatNode{Weight: 2, ID: id})
		}
		if got := popIDs(q, 3); !slices.Equal(got, []uint64{10, 20, 30}) {
			t.Fatalf("tie-break order wrong: %v", got)
		}
	})
}

// TestHFQueueTieBreakByID pins HF's order: weight decides first and the
// ID only among exact ties, so a light node with a small ID never
// overtakes a heavier one.
func TestHFQueueTieBreakByID(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		q.push(bisect.FlatNode{Weight: 2, ID: 10})
		q.push(bisect.FlatNode{Weight: 3, ID: 30})
		q.push(bisect.FlatNode{Weight: 2, ID: 5})
		q.push(bisect.FlatNode{Weight: 3.5, ID: 40})
		if got := popIDs(q, 4); !slices.Equal(got, []uint64{40, 30, 5, 10}) {
			t.Fatalf("weight-then-ID order wrong: %v", got)
		}
	})
}

// TestHFQueueNonPositiveWeights orders zero and negative weights, and
// ties −0 with +0 as HF's == comparison does.
func TestHFQueueNonPositiveWeights(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		q.push(bisect.FlatNode{Weight: 0, ID: 2})
		q.push(bisect.FlatNode{Weight: -1, ID: 3})
		q.push(bisect.FlatNode{Weight: 1, ID: 1})
		q.push(bisect.FlatNode{Weight: math.Copysign(0, -1), ID: 0})
		if got := popIDs(q, 4); !slices.Equal(got, []uint64{1, 0, 2, 3}) {
			t.Fatalf("non-positive weights ordered wrong: %v", got)
		}
	})
}

// TestHFQueueExtremeWeights orders the ends of the float64 range: +Inf
// before the largest finite weight, subnormals before zero.
func TestHFQueueExtremeWeights(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		q.push(bisect.FlatNode{Weight: 0, ID: 5})
		q.push(bisect.FlatNode{Weight: math.SmallestNonzeroFloat64, ID: 4})
		q.push(bisect.FlatNode{Weight: 1, ID: 3})
		q.push(bisect.FlatNode{Weight: math.MaxFloat64, ID: 2})
		q.push(bisect.FlatNode{Weight: math.Inf(1), ID: 1})
		if !verify(q) {
			t.Fatal("invariants violated with extreme weights")
		}
		if got := popIDs(q, 5); !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) {
			t.Fatalf("extreme weights ordered wrong: %v", got)
		}
	})
}

// TestHFQueueMatchesHeap runs FuzzHFQueue's differential check on long
// random scripts: whatever the interleaving of pushes (HF's monotone
// pattern and pushes heavier than the last pop), pops, resets and
// drains, the queue pops container/heap's sequence node for node.
func TestHFQueueMatchesHeap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		script := make([]byte, 6000)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		runHFQueueScript(t, script)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHFQueueInterleavedPushPop checks every invariant after each step
// of a long random interleaving whose pushes are often heavier than the
// last pop, so side holds nodes throughout.
func TestHFQueueInterleavedPushPop(t *testing.T) {
	rng := xrand.New(7)
	var q hfQueue
	live := 0
	for step := range 10000 {
		if live == 0 || rng.Float64() < 0.6 {
			q.push(bisect.FlatNode{Weight: rng.InRange(0, 1e6), ID: uint64(step)})
			live++
		} else {
			q.pop()
			live--
		}
		if !verify(&q) || q.len() != live {
			t.Fatalf("invariant broken at step %d", step)
		}
	}
	if len(q.side) == 0 {
		t.Fatal("no push went below the last extracted key")
	}
}

// verifyCorruptions builds a valid radix-mode queue with nodes on both
// sides of the last extracted key, applies each corruption to a fresh
// copy, and checks verify rejects every one.
func verifyCorruptions(t *testing.T, corruptions map[string]func(q *hfQueue)) {
	t.Helper()
	build := func() *hfQueue {
		var q hfQueue
		for i := range 40 {
			q.push(bisect.FlatNode{Weight: float64(1 + i%7), ID: uint64(i)})
		}
		q.pop()
		q.push(bisect.FlatNode{Weight: 100, ID: 99}) // below the last key
		q.push(bisect.FlatNode{Weight: 200, ID: 98})
		if !verify(&q) {
			t.Fatal("verify rejects a valid queue")
		}
		return &q
	}
	for name, corrupt := range corruptions {
		q := build()
		corrupt(q)
		if verify(q) {
			t.Errorf("verify missed: %s", name)
		}
	}
}

// TestHFQueueVerifyDetectsOrderViolation checks verify trips when a key
// sits on the wrong side of the last extracted key.
func TestHFQueueVerifyDetectsOrderViolation(t *testing.T) {
	verifyCorruptions(t, map[string]func(q *hfQueue){
		"side key above the last key":     func(q *hfQueue) { q.side[1].Weight = -1 },
		"bucketed key below the last key": func(q *hfQueue) { q.last.w = ^uint64(0) },
	})
}

// TestHFQueueVerifyDetectsCorruption checks verify trips on each
// bucket-level invariant, violated directly.
func TestHFQueueVerifyDetectsCorruption(t *testing.T) {
	verifyCorruptions(t, map[string]func(q *hfQueue){
		"node in the wrong bucket": func(q *hfQueue) {
			for b := 1; b < radixBuckets; b++ {
				if q.buckets[b] != nil {
					q.buckets[b-1], q.buckets[b] = q.buckets[b], q.buckets[b-1]
					q.occupied = [len(q.occupied)]uint64{}
					for i, c := range q.buckets {
						if c != nil {
							q.occupied[i>>6] |= 1 << (i & 63)
						}
					}
					return
				}
			}
		},
		"occupied bit of an empty bucket": func(q *hfQueue) { q.occupied[2] |= 1 },
		"node count":                      func(q *hfQueue) { q.n++ },
	})
}

func TestHFQueueResetRetainsStorage(t *testing.T) {
	var q hfQueue
	for i := range 1000 {
		q.push(bisect.FlatNode{Weight: float64(i + 1), ID: uint64(i)})
	}
	q.pop()
	before := q.footprint()
	if before == 0 {
		t.Fatal("a radix queue reports no storage")
	}
	q.reset()
	if q.len() != 0 || !verify(&q) {
		t.Fatalf("queue holds %d nodes after reset", q.len())
	}
	if q.footprint() != before {
		t.Fatalf("reset changed footprint: %d -> %d", before, q.footprint())
	}
	q.push(bisect.FlatNode{Weight: 5, ID: 9})
	if q.pop().ID != 9 {
		t.Fatal("queue unusable after reset")
	}
}

// TestHFQueuePushPopAllocationFree pins the steady state of HF's loop:
// once the chunk pool is warm, popping a node and pushing it back
// lighter allocates nothing.
func TestHFQueuePushPopAllocationFree(t *testing.T) {
	var q hfQueue
	for i := range 64 {
		q.push(bisect.FlatNode{Weight: 100 - float64(i), ID: uint64(i)})
	}
	allocs := testing.AllocsPerRun(200, func() {
		nd := q.pop()
		nd.Weight *= 0.5 // monotone: children lighter than the pop
		q.push(nd)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v allocs/op, want 0", allocs)
	}
}

// TestHFQueueAllocationFree pins the planner's per-call pattern: a warm
// queue filled and drained again, in either mode, allocates nothing.
func TestHFQueueAllocationFree(t *testing.T) {
	var q hfQueue
	var plan Plan
	allocs := testing.AllocsPerRun(100, func() {
		for _, n := range []int{8, 500} {
			for i := range n {
				q.push(bisect.FlatNode{Weight: 50 - float64(i), ID: uint64(i)})
			}
			q.pop()
			plan.Parts = plan.Parts[:0]
			q.drainInto(&plan)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm fill/drain cycle allocates %v allocs/op, want 0", allocs)
	}
}

// TestHFQueueDrain checks drainInto appends every queued node exactly
// once, as a one-processor part, and leaves the queue empty and reusable.
func TestHFQueueDrain(t *testing.T) {
	queueModes(t, func(t *testing.T, q *hfQueue) {
		queued := q.len()
		for i := range 50 {
			q.push(bisect.FlatNode{Weight: float64(50 - i), ID: uint64(i)})
		}
		var plan Plan
		q.drainInto(&plan)
		if len(plan.Parts) != queued+50 {
			t.Fatalf("drained %d parts, want %d", len(plan.Parts), queued+50)
		}
		seen := map[uint64]bool{}
		for _, p := range plan.Parts {
			if seen[p.Node.ID] || p.Procs != 1 {
				t.Fatalf("part %+v drained twice or with %d procs", p.Node, p.Procs)
			}
			seen[p.Node.ID] = true
		}
		if q.len() != 0 || !verify(q) {
			t.Fatalf("queue holds %d nodes after drainInto", q.len())
		}
		q.push(bisect.FlatNode{Weight: 1, ID: 99})
		if q.len() != 1 || q.pop().ID != 99 {
			t.Fatal("queue unusable after drainInto")
		}
	})
}

func BenchmarkHFQueuePushPop(b *testing.B) {
	rng := xrand.New(1)
	var q hfQueue
	for i := range 1024 {
		q.push(bisect.FlatNode{Weight: rng.Float64(), ID: uint64(i)})
	}
	b.ResetTimer()
	for range b.N {
		nd := q.pop()
		nd.Weight *= 0.99
		q.push(nd)
	}
}

// panicKernel panics on its split-th Split.
type panicKernel struct {
	bisect.Kernel
	split int
}

func (k *panicKernel) Split(nd bisect.FlatNode) (bisect.FlatNode, bisect.FlatNode) {
	if k.split--; k.split == 0 {
		panic("kernel failure")
	}
	return k.Kernel.Split(nd)
}

// TestHFQueueRecoversAfterPanic pins that a kernel panic mid-plan, which
// leaves nodes in HF's queue, does not wedge the planner: a recovered
// planner's next plan is a fresh planner's.
func TestHFQueueRecoversAfterPanic(t *testing.T) {
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 42)
	const n = 1000
	var want Plan
	if err := NewPlanner(n).HFInto(&want, k, root, n); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(n)
	var plan Plan
	func() {
		defer func() { recover() }()
		pl.HFInto(&plan, &panicKernel{Kernel: k, split: 500}, root, n)
	}()
	if pl.queue.len() == 0 {
		t.Fatal("the panic left HF's queue empty; the test exercises nothing")
	}
	if err := pl.HFInto(&plan, k, root, n); err != nil {
		t.Fatal(err)
	}
	checkPlansIdentical(t, &want, &plan)
}
