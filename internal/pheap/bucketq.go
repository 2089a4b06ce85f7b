package pheap

import (
	"math"
	"unsafe"
)

// Item is an entry in the queue. ID must be unique within one queue; it
// is the deterministic tie-breaker (smaller ID wins among equal weights)
// and the handle used by the experiments to identify subproblems. Ref is
// an opaque caller-owned index, typically into a node arena; the queue
// never interprets it.
type Item struct {
	Weight float64
	ID     uint64
	Ref    int32
}

// numBuckets covers every float64 weight: bucket 0 collects zero and
// negative weights, buckets 1..2047 are the positive biased exponents
// (subnormals land in 1, +Inf is clamped into 2047 with the top binade).
const numBuckets = 2048

// BucketQueue is a monotone heaviest-first priority queue: the queue of
// Algorithm HF and of BA-HF's HF phase (DESIGN.md §13). HF only ever
// pushes children lighter than the parent it just popped — the pop
// sequence is non-increasing — so a bucket structure keyed by the
// weight's binary exponent finds the next maximum by scanning downward
// from a high-water bucket instead of reheapifying: amortized O(1) per
// operation against a binary heap's O(log n).
//
// Within one bucket (one binade, weights within a factor of two — the
// resolution at which α-band weight classes cluster) items are kept in a
// small binary max-heap ordered by (weight desc, ID asc), so the global
// pop sequence is that exact total order: the order of a binary heap
// over all items, item for item. Buckets stay tiny in the α-band regime
// — a class with bisector quality α spreads the live weights of one HF
// frontier over ~log₂(1/α) binades — so the per-bucket heap work is O(1)
// in practice; in the degenerate all-equal-weights case (α = 1/2
// exactly) the queue degrades gracefully to a single binary heap.
//
// The zero value is ready for use; the first Push allocates the bucket
// directory (numBuckets slice headers, ~48 KiB) once, after which all
// operations are allocation-free at steady state. A BucketQueue is not
// safe for concurrent use.
type BucketQueue struct {
	buckets [][]Item
	// hi is the highest bucket index that may be nonempty; lo the lowest
	// index touched since the last Reset. Pop scans downward from hi;
	// Reset clears only [lo, hi], so short runs (BA-HF's per-subtree HF
	// finish) don't pay for the whole directory.
	hi, lo   int
	n        int
	draining bool
}

func (q *BucketQueue) init() {
	q.buckets = make([][]Item, numBuckets)
	q.hi = -1
	q.lo = numBuckets
}

// bucketOf maps a weight to its bucket index. For positive weights the
// IEEE-754 bit pattern is order-preserving, so the biased exponent
// (bits 52..62) is monotone in the weight — exactly the property the
// cross-bucket ordering needs. Non-positive weights (never produced by a
// valid bisection, but the queue stays correct anyway) share bucket 0,
// where the in-bucket heap still orders them exactly.
func bucketOf(w float64) int {
	if !(w > 0) {
		return 0
	}
	b := 1 + int(math.Float64bits(w)>>52)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Len returns the number of items in the queue.
func (q *BucketQueue) Len() int { return q.n }

// Push inserts an item. Pushing a weight above every weight popped so
// far is legal (it simply raises the high-water bucket); the amortized
// O(1) bound only needs the HF pattern of non-increasing pushes. Push
// panics inside a Drain callback.
func (q *BucketQueue) Push(it Item) {
	if q.draining {
		panic("pheap: Push during Drain")
	}
	if q.buckets == nil {
		q.init()
	}
	b := bucketOf(it.Weight)
	if b > q.hi {
		q.hi = b
	}
	if b < q.lo {
		q.lo = b
	}
	bk := append(q.buckets[b], it)
	// Sift up in the per-bucket mini-heap.
	i := len(bk) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(bk[i], bk[parent]) {
			break
		}
		bk[i], bk[parent] = bk[parent], bk[i]
		i = parent
	}
	q.buckets[b] = bk
	q.n++
}

// Pop removes and returns the heaviest item, ties broken by smaller ID.
// It panics on an empty queue — callers (Algorithm HF) always know the
// queue size — and inside a Drain callback.
func (q *BucketQueue) Pop() Item {
	if q.draining {
		panic("pheap: Pop during Drain")
	}
	if q.n == 0 {
		panic("pheap: Pop from empty queue")
	}
	for len(q.buckets[q.hi]) == 0 {
		q.hi--
	}
	bk := q.buckets[q.hi]
	top := bk[0]
	last := len(bk) - 1
	bk[0] = bk[last]
	bk = bk[:last]
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		best := left
		if right := left + 1; right < last && itemLess(bk[right], bk[left]) {
			best = right
		}
		if !itemLess(bk[best], bk[i]) {
			break
		}
		bk[i], bk[best] = bk[best], bk[i]
		i = best
	}
	q.buckets[q.hi] = bk
	q.n--
	return top
}

// Drain calls fn for every remaining item — bucket by bucket from the
// heaviest binade down, heap order within a bucket — and then empties
// the queue, retaining all storage. It is the safe, allocation-free way
// to empty the queue: the callback runs while the queue is locked
// against mutation, so a misuse that pushes, pops or resets mid-drain
// panics instead of iterating a stale view. fn must not retain the
// queue's storage.
func (q *BucketQueue) Drain(fn func(Item)) {
	if q.draining {
		panic("pheap: Drain during Drain")
	}
	q.draining = true
	// The deferred unlock keeps the guard an invariant check rather than
	// a latch: a recovered mid-drain panic leaves the queue resettable.
	defer func() { q.draining = false }()
	if q.buckets != nil {
		for b := q.hi; b >= q.lo && b >= 0; b-- {
			for i := range q.buckets[b] {
				fn(q.buckets[b][i])
			}
		}
	}
	q.clear()
}

// Reset empties the queue, retaining the storage of every touched
// bucket. It panics inside a Drain callback.
func (q *BucketQueue) Reset() {
	if q.draining {
		panic("pheap: Reset during Drain")
	}
	q.clear()
}

func (q *BucketQueue) clear() {
	if q.buckets != nil {
		for b := q.lo; b <= q.hi && b < numBuckets; b++ {
			if b >= 0 {
				q.buckets[b] = q.buckets[b][:0]
			}
		}
	}
	q.hi = -1
	q.lo = numBuckets
	q.n = 0
}

// Footprint reports the bytes retained by the queue: the bucket
// directory plus every bucket's backing array.
func (q *BucketQueue) Footprint() int {
	f := cap(q.buckets) * int(unsafe.Sizeof([]Item{}))
	for i := range q.buckets {
		f += cap(q.buckets[i]) * int(unsafe.Sizeof(Item{}))
	}
	return f
}

// itemLess reports whether a has priority over b: heavier first, ties
// broken by smaller ID.
func itemLess(a, b Item) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.ID < b.ID
}
