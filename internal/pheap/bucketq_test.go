package pheap

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"bisectlb/internal/xrand"
)

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// verify checks every per-bucket heap invariant, that every item sits in
// the bucket its weight maps to and below the high watermark, and the
// item count. It costs O(n).
func verify(q *BucketQueue) bool {
	count := 0
	for b := range q.buckets {
		bk := q.buckets[b]
		count += len(bk)
		for i := range bk {
			if bucketOf(bk[i].Weight) != b {
				return false
			}
			if i > 0 && itemLess(bk[i], bk[(i-1)/2]) {
				return false
			}
		}
		if len(bk) > 0 && b > q.hi {
			return false
		}
	}
	return count == q.n
}

// refHeap is container/heap's binary heap over the queue's total order
// (weight desc, ID asc): the reference TestBucketQueueMatchesHeap pops
// against.
type refHeap []Item

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return itemLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Item)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func TestBucketQueueEmpty(t *testing.T) {
	var q BucketQueue
	if q.Len() != 0 {
		t.Fatal("zero-value queue not empty")
	}
	if !panics(func() { q.Pop() }) {
		t.Fatal("Pop on empty should panic")
	}
	q.Push(Item{Weight: 1, ID: 1})
	if q.Len() != 1 || q.Pop().ID != 1 || q.Len() != 0 {
		t.Fatal("zero value unusable after first Push")
	}
	if !panics(func() { q.Pop() }) {
		t.Fatal("Pop on a queue emptied by Pop should panic")
	}
}

func TestPushPopOrder(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 1, ID: 1})
	q.Push(Item{Weight: 5, ID: 2})
	q.Push(Item{Weight: 3, ID: 3})
	q.Push(Item{Weight: 4, ID: 4})
	want := []float64{5, 4, 3, 1}
	for i, w := range want {
		if got := q.Pop().Weight; got != w {
			t.Fatalf("pop %d: got %v want %v", i, got, w)
		}
	}
}

// TestBucketQueueMatchesHeap is the order-parity pin: on arbitrary
// interleavings of pushes and pops — including the HF monotone pattern
// and adversarial non-monotone ones — the bucket queue pops the exact
// item sequence a binary heap over (weight desc, ID asc) does.
func TestBucketQueueMatchesHeap(t *testing.T) {
	rng := xrand.New(3)
	f := func(seed uint64) bool {
		rng.Reseed(seed)
		var h refHeap
		var q BucketQueue
		live := 0
		for step := 0; step < 2000; step++ {
			if live == 0 || rng.Float64() < 0.55 {
				// Mix magnitudes across many binades, with deliberate
				// exact ties to exercise the ID tie-break.
				w := rng.InRange(0, 100)
				switch rng.Intn(5) {
				case 0:
					w *= 1e-12
				case 1:
					w *= 1e12
				case 2:
					w = 2.5 // exact tie
				}
				it := Item{Weight: w, ID: uint64(step), Ref: int32(step)}
				heap.Push(&h, it)
				q.Push(it)
				live++
			} else {
				a, b := heap.Pop(&h).(Item), q.Pop()
				if a != b {
					t.Logf("step %d: heap popped %+v, bucket queue %+v", step, a, b)
					return false
				}
				live--
			}
		}
		if h.Len() != q.Len() {
			return false
		}
		if !verify(&q) {
			return false
		}
		for h.Len() > 0 {
			if heap.Pop(&h).(Item) != q.Pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedPushPop checks every queue invariant after each step of
// a long random interleaving whose pushes are often heavier than the
// last pop, raising the high-water bucket again.
func TestInterleavedPushPop(t *testing.T) {
	rng := xrand.New(7)
	var q BucketQueue
	live := 0
	for step := 0; step < 10000; step++ {
		if live == 0 || rng.Float64() < 0.6 {
			q.Push(Item{Weight: rng.InRange(0, 1e6), ID: uint64(step)})
			live++
		} else {
			q.Pop()
			live--
		}
		if !verify(&q) || q.Len() != live {
			t.Fatalf("invariant broken at step %d", step)
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 2, ID: 30})
	q.Push(Item{Weight: 2, ID: 10})
	q.Push(Item{Weight: 2, ID: 20})
	ids := []uint64{q.Pop().ID, q.Pop().ID, q.Pop().ID}
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 30 {
		t.Fatalf("tie-break order wrong: %v", ids)
	}
}

// TestBucketQueueTieBreakByID pins the order inside one binade: weight
// decides first and the ID only among exact ties, so a light item with a
// small ID never overtakes a heavier one sharing its bucket.
func TestBucketQueueTieBreakByID(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 2, ID: 10})
	q.Push(Item{Weight: 3, ID: 30})
	q.Push(Item{Weight: 2, ID: 5})
	q.Push(Item{Weight: 3.5, ID: 40})
	ids := []uint64{q.Pop().ID, q.Pop().ID, q.Pop().ID, q.Pop().ID}
	if ids[0] != 40 || ids[1] != 30 || ids[2] != 5 || ids[3] != 10 {
		t.Fatalf("in-bucket order wrong: %v", ids)
	}
}

func TestBucketQueueNonPositiveWeights(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 0, ID: 2})
	q.Push(Item{Weight: -1, ID: 3})
	q.Push(Item{Weight: 1, ID: 1})
	if got := []uint64{q.Pop().ID, q.Pop().ID, q.Pop().ID}; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("non-positive weights ordered wrong: %v", got)
	}
}

func TestBucketQueueResetRetainsStorage(t *testing.T) {
	var q BucketQueue
	for i := 0; i < 100; i++ {
		q.Push(Item{Weight: float64(i + 1), ID: uint64(i)})
	}
	before := q.Footprint()
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("queue has %d items after Reset", q.Len())
	}
	if q.Footprint() != before {
		t.Fatalf("Reset changed footprint: %d -> %d", before, q.Footprint())
	}
	q.Push(Item{Weight: 5, ID: 9})
	if q.Pop().ID != 9 {
		t.Fatal("queue unusable after Reset")
	}
}

// TestPushPopAllocationFree is the amortized-O(1) half of the
// acceptance: once the directory and touched buckets are warm, the
// monotone push/pop pattern allocates nothing.
func TestPushPopAllocationFree(t *testing.T) {
	var q BucketQueue
	for i := 0; i < 64; i++ {
		q.Push(Item{Weight: 100 - float64(i), ID: uint64(i)})
	}
	allocs := testing.AllocsPerRun(200, func() {
		it := q.Pop()
		it.Weight *= 0.5 // monotone: children lighter than the pop
		q.Push(it)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %v allocs/op, want 0", allocs)
	}
}

// TestBucketQueueAllocationFree pins the planner's per-call pattern: a
// warm queue filled and drained again allocates nothing.
func TestBucketQueueAllocationFree(t *testing.T) {
	var q BucketQueue
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			q.Push(Item{Weight: 50 - float64(i), ID: uint64(i)})
		}
		q.Drain(func(Item) {})
	})
	if allocs != 0 {
		t.Fatalf("warm fill/drain cycle allocates %v allocs/op, want 0", allocs)
	}
}

// TestBucketQueueDrain checks Drain visits every item exactly once and
// leaves the queue empty and reusable.
func TestBucketQueueDrain(t *testing.T) {
	var q BucketQueue
	want := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		q.Push(Item{Weight: float64(50 - i), ID: uint64(i)})
		want[uint64(i)] = true
	}
	got := map[uint64]bool{}
	q.Drain(func(it Item) {
		if got[it.ID] {
			t.Fatalf("Drain visited item %d twice", it.ID)
		}
		got[it.ID] = true
	})
	if len(got) != len(want) {
		t.Fatalf("Drain visited %d items, want %d", len(got), len(want))
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d items after Drain", q.Len())
	}
	q.Push(Item{Weight: 1, ID: 99})
	if q.Len() != 1 {
		t.Fatal("queue unusable after Drain")
	}
}

// TestDrainForbidsMutation is the regression test for the fragile
// Items-then-Reset contract this API replaced: a caller that pushes (or
// pops, or resets) from inside the drain callback used to silently
// iterate a stale view; now it panics at the misuse site.
func TestDrainForbidsMutation(t *testing.T) {
	t.Run("bucket", func(t *testing.T) {
		var q BucketQueue
		q.Push(Item{Weight: 1, ID: 1})
		if !panics(func() { q.Drain(func(Item) { q.Push(Item{Weight: 2, ID: 2}) }) }) {
			t.Fatal("Push during BucketQueue.Drain did not panic")
		}
		q.Reset()
		q.Push(Item{Weight: 1, ID: 1})
		if !panics(func() { q.Drain(func(Item) { q.Pop() }) }) {
			t.Fatal("Pop during BucketQueue.Drain did not panic")
		}
	})
}

// TestDrainRecoversAfterPanic pins that a recovered mid-drain panic does
// not wedge the structure: the draining flag is an invariant guard, not
// a latch. (The planner never recovers these panics — they are bugs —
// but tests that assert on them must not poison later subtests.)
func TestDrainRecoversAfterPanic(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 1, ID: 1})
	panics(func() { q.Drain(func(Item) { q.Push(Item{}) }) })
	// The queue is in an unspecified state after the panic; Reset must
	// still work so pooled planners can be recycled.
	if panics(q.Reset) {
		t.Fatal("Reset after a recovered Drain panic should succeed")
	}
}

func BenchmarkBucketQueuePushPop(b *testing.B) {
	rng := xrand.New(1)
	var q BucketQueue
	for i := 0; i < 1024; i++ {
		q.Push(Item{Weight: rng.Float64(), ID: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := q.Pop()
		it.Weight *= 0.99
		q.Push(it)
	}
}

// TestBucketQueueExtremeWeights drives the exponent clamp: +Inf lands
// in the top bucket and still pops before every finite weight.
func TestBucketQueueExtremeWeights(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: math.Inf(1), ID: 1})
	q.Push(Item{Weight: math.MaxFloat64, ID: 2})
	q.Push(Item{Weight: 1, ID: 3})
	if !verify(&q) {
		t.Fatal("invariants violated with extreme weights")
	}
	for want := uint64(1); want <= 3; want++ {
		if got := q.Pop(); got.ID != want {
			t.Fatalf("pop order: got ID %d, want %d", got.ID, want)
		}
	}
}

// TestBucketQueueResetDuringDrainPanics completes the mutation guard of
// TestDrainForbidsMutation with Reset.
func TestBucketQueueResetDuringDrainPanics(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 1, ID: 1})
	if !panics(func() { q.Drain(func(Item) { q.Reset() }) }) {
		t.Fatal("Reset during BucketQueue.Drain did not panic")
	}
}

// mkVerifyQueue returns a two-item queue whose items share one binade.
func mkVerifyQueue() *BucketQueue {
	var q BucketQueue
	q.Push(Item{Weight: 4, ID: 1})
	q.Push(Item{Weight: 5, ID: 2})
	return &q
}

// TestVerifyDetectsCorruption checks the test helper verify trips on a
// broken in-bucket heap order.
func TestVerifyDetectsCorruption(t *testing.T) {
	q := mkVerifyQueue()
	bk := q.buckets[bucketOf(4)]
	bk[0], bk[1] = bk[1], bk[0]
	if verify(q) {
		t.Fatal("verify missed a heap-order violation")
	}
}

// TestBucketQueueVerifyDetectsCorruption checks verify trips on each
// bucket-level invariant, violated directly.
func TestBucketQueueVerifyDetectsCorruption(t *testing.T) {
	q := mkVerifyQueue()
	b := bucketOf(4)
	q.buckets[b+1], q.buckets[b] = q.buckets[b], nil // items in the wrong binade
	if verify(q) {
		t.Fatal("verify missed items sitting in the wrong bucket")
	}
	q = mkVerifyQueue()
	q.hi = bucketOf(4) - 1 // occupied bucket above the high watermark
	if verify(q) {
		t.Fatal("verify missed items above the high watermark")
	}
	q = mkVerifyQueue()
	q.n++ // break the count
	if verify(q) {
		t.Fatal("verify missed an item-count mismatch")
	}
}

// TestDrainDuringDrainPanics pins the re-entrancy guard.
func TestDrainDuringDrainPanics(t *testing.T) {
	var q BucketQueue
	q.Push(Item{Weight: 1, ID: 1})
	if !panics(func() { q.Drain(func(Item) { q.Drain(func(Item) {}) }) }) {
		t.Fatal("nested BucketQueue.Drain did not panic")
	}
}
