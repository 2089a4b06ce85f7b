package core

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"
)

// maxInsertionBucket is the largest bucket the ID sort orders by
// insertion sort; a larger one goes to slices.SortFunc, which keeps
// clustered IDs from a custom Kernel or Problem at O(N log N).
const maxInsertionBucket = 16

// idSort is the reusable scratch of the ID sort that puts every plan's
// parts in ascending ID order (DESIGN.md §10): the gathered IDs (8 B per
// part), the sorted order as indices into them (4 B per part) and the
// bucket boundaries (4 B per bucket, at most one bucket per part) — at
// most 16 B per part in all. The zero value is ready for use; once grown
// it sorts without allocating.
type idSort struct {
	ids  []uint64
	perm []int32
	pile []int32
}

// footprint reports the bytes the scratch retains.
func (s *idSort) footprint() int {
	return cap(s.ids)*int(unsafe.Sizeof(uint64(0))) +
		(cap(s.perm)+cap(s.pile))*int(unsafe.Sizeof(int32(0)))
}

// gather returns the ID buffer sized for n parts, reusing its storage.
// The caller writes part i's ID to element i.
func (s *idSort) gather(n int) []uint64 {
	s.ids = grow(s.ids, n)
	return s.ids
}

// order returns the indices of ids in ascending ID order. One counting
// pass buckets the IDs by the top ⌊log₂ n⌋ significant bits of
// ID − minID, one scatter pass writes each index into its bucket, and
// each bucket is sorted on its own. Node IDs are hash-mixed (xrand.Mix),
// so buckets hold one or two IDs and the sort is linear. Equal IDs come
// out in unspecified order. The result aliases the scratch.
func (s *idSort) order(ids []uint64) []int32 {
	n := len(ids)
	s.perm = grow(s.perm, n)
	perm := s.perm
	if n == 0 {
		return perm
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo = min(lo, id)
		hi = max(hi, id)
	}
	shift := 0
	if l, b := bits.Len64(hi-lo), bits.Len(uint(n))-1; l > b {
		shift = l - b
	}
	nb := int((hi-lo)>>shift) + 1
	s.pile = grow(s.pile, nb+1)
	// pile[c] counts bucket c, then becomes its end, then — after the
	// scatter fills each bucket from its end downward — its start; the
	// extra last entry stays n.
	pile := s.pile
	clear(pile)
	for _, id := range ids {
		pile[(id-lo)>>shift]++
	}
	var end int32
	for c := range pile {
		end += pile[c]
		pile[c] = end
	}
	for i, id := range ids {
		c := (id - lo) >> shift
		pile[c]--
		perm[pile[c]] = int32(i)
	}
	for c := range nb {
		b := perm[pile[c]:pile[c+1]]
		if len(b) <= maxInsertionBucket {
			insertionSortIdx(ids, b)
		} else {
			slices.SortFunc(b, func(x, y int32) int { return cmp.Compare(ids[x], ids[y]) })
		}
	}
	return perm
}

// insertionSortIdx sorts idx by ascending ids[idx[i]].
func insertionSortIdx(ids []uint64, idx []int32) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		j := i
		for ; j > 0 && ids[idx[j-1]] > ids[x]; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = x
	}
}

// permute reorders items in place so that position j receives the item
// at perm[j], following each cycle of the permutation once, so every item
// moves once and no second item buffer is needed. It consumes perm: each
// entry is overwritten to mark its position done.
func permute[T any](items []T, perm []int32) {
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		tmp := items[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = int32(j)
			if k == i {
				items[j] = tmp
				break
			}
			items[j] = items[k]
			j = k
		}
	}
}
