package core

import (
	"math"
	"math/bits"
	"unsafe"

	"bisectlb/internal/bisect"
)

// smallQueue is the node count up to which hfQueue keeps its nodes
// unordered and pops by linear scan. BA-HF's HF phases plan fewer than
// κ/α + 1 parts each (11 at α = 0.1, κ = 1), thousands of them per
// plan, and never leave this mode.
const smallQueue = 16

// radixBuckets is the number of radix-heap buckets over 128-bit keys:
// bucket 0 holds keys equal to the last extracted key, bucket i ≥ 1
// those whose highest bit differing from it is bit i−1.
const radixBuckets = 129

// nodeKey is a node's position in HF's order (weight desc, ID asc) as a
// 128-bit unsigned integer: the inverted order-preserving bits of the
// weight, then the ID.
type nodeKey struct{ w, id uint64 }

func (a nodeKey) less(b nodeKey) bool { return a.w < b.w || a.w == b.w && a.id < b.id }

// keyOf maps a node to its key. The IEEE-754 bits of a non-negative
// weight grow with it, those of a negative weight shrink, so flipping
// the sign-magnitude bits into two's-complement order and inverting the
// result makes heavier weights smaller keys. −0 is keyed as +0, since
// HF compares weights with == and breaks their tie by ID.
func keyOf(nd *bisect.FlatNode) nodeKey {
	w := nd.Weight
	if w == 0 {
		w = 0
	}
	b := math.Float64bits(w)
	if b>>63 == 0 {
		b = ^b &^ (1 << 63)
	}
	return nodeKey{b, nd.ID}
}

// chunkLen is the node capacity of a bucket chunk: with its length and
// link a chunk takes 1256 bytes, which the allocator's 1280-byte size
// class holds.
const chunkLen = 31

// chunk is a block of bucket storage. A bucket is a list of chunks, the
// partly filled one first.
type chunk struct {
	nodes [chunkLen]bisect.FlatNode
	n     int32
	next  *chunk
}

// hfQueue is the heaviest-first queue of Algorithm HF and of BA-HF's HF
// phase (DESIGN.md §13). It holds the flat nodes themselves and pops them
// in exactly the order (weight desc, ID asc), a total order over nodes
// with unique IDs, so HF's bisection sequence does not depend on the
// queue's internals. NaN weights have no place in that order and are out
// of scope.
//
// Up to smallQueue nodes sit unordered in small and pop by linear scan.
// Past that the queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin
// and Tarjan, 1990) over nodeKey: HF pushes only the children of the
// node it just popped, which are no heavier, so keys never fall below
// the last extracted key, and each node moves down a few buckets over
// its life instead of sifting through a binary heap on every pop. A push
// below the last extracted key is legal but needs a zero-weight sibling,
// which no α-bisection makes; it goes to side, which pop scans first.
//
// The buckets share a pool of chunks, so the queue retains about one
// node slot per node it has held at once. The zero value is an empty
// queue; storage is kept across resets, so a warm queue allocates
// nothing.
type hfQueue struct {
	small [smallQueue]bisect.FlatNode
	// radix reports that the nodes live in buckets and side.
	radix   bool
	buckets [radixBuckets]*chunk
	// occupied has bit i set while buckets[i] is nonempty.
	occupied [(radixBuckets + 63) / 64]uint64
	// last is the last extracted key: every bucketed key is at least it.
	last nodeKey
	side []bisect.FlatNode
	n    int
	// chunks[:used] have been handed out since the last reset; free
	// lists those returned since.
	chunks []*chunk
	used   int
	free   *chunk
}

func (q *hfQueue) len() int { return q.n }

// push adds nd to the queue. The small-queue path is kept short enough
// to inline into HF's loop.
func (q *hfQueue) push(nd bisect.FlatNode) {
	if q.radix || q.n == smallQueue {
		q.pushRadix(nd)
		return
	}
	q.small[q.n] = nd
	q.n++
}

func (q *hfQueue) pushRadix(nd bisect.FlatNode) {
	if !q.radix {
		q.radix = true
		for i := range q.small {
			q.add(&q.small[i])
		}
	}
	q.n++
	if keyOf(&nd).less(q.last) {
		q.side = append(q.side, nd)
		return
	}
	q.add(&nd)
}

// bucketOf returns the bucket of key k ≥ q.last.
func (q *hfQueue) bucketOf(k nodeKey) int {
	if d := k.w ^ q.last.w; d != 0 {
		return 64 + bits.Len64(d)
	}
	return bits.Len64(k.id ^ q.last.id)
}

// add puts nd, keyed at least q.last, into its bucket.
func (q *hfQueue) add(nd *bisect.FlatNode) {
	b := q.bucketOf(keyOf(nd))
	c := q.buckets[b]
	if c == nil || c.n == chunkLen {
		c = q.newChunk(c)
		q.buckets[b] = c
		q.occupied[b>>6] |= 1 << (b & 63)
	}
	c.nodes[c.n] = *nd
	c.n++
}

// newChunk returns an empty chunk linked to next.
func (q *hfQueue) newChunk(next *chunk) *chunk {
	c := q.free
	switch {
	case c != nil:
		q.free = c.next
	case q.used < len(q.chunks):
		c = q.chunks[q.used]
		q.used++
	default:
		c = new(chunk)
		q.chunks = append(q.chunks, c)
		q.used++
	}
	c.n, c.next = 0, next
	return c
}

// first returns the index of the node of s that HF pops first.
func first(s []bisect.FlatNode) int {
	m := 0
	for i := 1; i < len(s); i++ {
		if s[i].Weight > s[m].Weight || s[i].Weight == s[m].Weight && s[i].ID < s[m].ID {
			m = i
		}
	}
	return m
}

// pop removes and returns the first node in HF's order. The queue must
// not be empty.
func (q *hfQueue) pop() bisect.FlatNode {
	q.n--
	if !q.radix {
		s := q.small[:q.n+1]
		m := first(s)
		nd := s[m]
		s[m] = s[q.n]
		return nd
	}
	if q.buckets[0] == nil && q.n >= len(q.side) {
		q.refill()
	}
	c := q.buckets[0]
	if s := q.side; len(s) > 0 {
		if m := first(s); c == nil || keyOf(&s[m]).less(q.last) {
			nd := s[m]
			s[m] = s[len(s)-1]
			q.side = s[:len(s)-1]
			return nd
		}
	}
	c.n--
	nd := c.nodes[c.n]
	if c.n == 0 {
		q.buckets[0] = c.next
		c.next, q.free = q.free, c
		if q.buckets[0] == nil {
			q.occupied[0] &^= 1
		}
	}
	return nd
}

// refill empties the lowest nonempty bucket: its minimum key becomes
// last, and every node in it moves to a lower bucket, the minimum to
// bucket 0.
func (q *hfQueue) refill() {
	i := 0
	for w, m := range q.occupied {
		if m != 0 {
			i = w*64 + bits.TrailingZeros64(m)
			break
		}
	}
	head := q.buckets[i]
	q.buckets[i] = nil
	q.occupied[i>>6] &^= 1 << (i & 63)
	lo := keyOf(&head.nodes[0])
	for c := head; c != nil; c = c.next {
		for j := range c.n {
			if k := keyOf(&c.nodes[j]); k.less(lo) {
				lo = k
			}
		}
	}
	q.last = lo
	for c := head; c != nil; {
		for j := range c.n {
			q.add(&c.nodes[j])
		}
		next := c.next
		c.next, q.free = q.free, c
		c = next
	}
}

// drainInto appends every node still queued to plan.Parts as a
// one-processor part, in no particular order, and empties the queue.
func (q *hfQueue) drainInto(plan *Plan) {
	rest := q.side
	if !q.radix {
		rest = q.small[:q.n]
	}
	for _, nd := range rest {
		plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
	}
	for w, m := range q.occupied {
		for ; m != 0; m &= m - 1 {
			for c := q.buckets[w*64+bits.TrailingZeros64(m)]; c != nil; c = c.next {
				for _, nd := range c.nodes[:c.n] {
					plan.Parts = append(plan.Parts, FlatPart{Node: nd, Procs: 1})
				}
			}
		}
	}
	q.reset()
}

// reset empties the queue, retaining its storage.
func (q *hfQueue) reset() {
	q.n = 0
	if !q.radix {
		return
	}
	for w, m := range q.occupied {
		for ; m != 0; m &= m - 1 {
			q.buckets[w*64+bits.TrailingZeros64(m)] = nil
		}
		q.occupied[w] = 0
	}
	q.side = q.side[:0]
	q.radix, q.last = false, nodeKey{}
	q.used, q.free = 0, nil
}

// footprint reports the bytes retained by the queue's node storage.
func (q *hfQueue) footprint() int {
	return cap(q.side)*int(unsafe.Sizeof(bisect.FlatNode{})) +
		len(q.chunks)*int(unsafe.Sizeof(chunk{})) + cap(q.chunks)*int(unsafe.Sizeof(&chunk{}))
}
