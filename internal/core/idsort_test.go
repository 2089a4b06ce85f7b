package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"bisectlb/internal/xrand"
)

// idPattern generates n part IDs.
type idPattern struct {
	name string
	ids  func(n int) []uint64
}

var idPatterns = []idPattern{
	{"mixed", func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = xrand.Mix(42, uint64(i))
		}
		return ids
	}},
	{"sequential", func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i) + 1
		}
		return ids
	}},
	{"high", func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = 1<<63 + uint64(i)
		}
		return ids
	}},
	// Every ID but one packed into the lowest bucket by a far outlier:
	// the bucket exceeds maxInsertionBucket and takes the heap fallback.
	{"clustered", func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = 3 * uint64(i)
		}
		ids[n-1] = ^uint64(0)
		return ids
	}},
}

// shuffledParts returns parts carrying ids in a seeded random order, each
// tagged with its ID's position in ids (Procs) so a test can check that
// whole parts moved, not just their IDs.
func shuffledParts(ids []uint64, seed uint64) []FlatPart {
	parts := make([]FlatPart, len(ids))
	for i, id := range ids {
		parts[i].Node.ID = id
		parts[i].Node.Weight = float64(id % 1000)
		parts[i].Procs = int32(i)
	}
	rng := xrand.New(seed)
	for i := len(parts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		parts[i], parts[j] = parts[j], parts[i]
	}
	return parts
}

// finalizeParts runs parts through Plan.finalize, the path every flat
// plan takes, with the ID-sort scratch s.
func finalizeParts(s *idSort, parts []FlatPart) {
	p := Plan{N: max(len(parts), 1), Total: 1, Parts: parts}
	p.finalize(s, 0)
}

// checkSortedLike sorts parts (built by shuffledParts from ids) with s
// and compares the ID sequence against sort.Slice over a copy. Every part
// must arrive whole: its tag still names its own ID, and each tag appears
// once.
func checkSortedLike(t *testing.T, s *idSort, ids []uint64, parts []FlatPart) {
	t.Helper()
	want := append([]uint64(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	finalizeParts(s, parts)
	seen := make([]bool, len(ids))
	for i, pt := range parts {
		if pt.Node.ID != want[i] {
			t.Fatalf("position %d: ID %d, want %d", i, pt.Node.ID, want[i])
		}
		tag := pt.Procs
		if ids[tag] != pt.Node.ID || pt.Node.Weight != float64(pt.Node.ID%1000) || seen[tag] {
			t.Fatalf("position %d: part %+v torn or duplicated", i, pt)
		}
		seen[tag] = true
	}
}

// TestSortByIDMatchesSortSlice pins the ID sort that finalizes every plan
// against sort.Slice over every ID pattern and the sizes around its
// bucket-count and insertion-sort boundaries. One scratch serves every
// case, so regrowth and reuse are exercised too.
func TestSortByIDMatchesSortSlice(t *testing.T) {
	var s idSort
	for _, p := range idPatterns {
		for _, n := range []int{1, 2, 3, 63, 64, 65, 1 << 16} {
			t.Run(fmt.Sprintf("%s/n%d", p.name, n), func(t *testing.T) {
				ids := p.ids(n)
				checkSortedLike(t, &s, ids, shuffledParts(ids, uint64(n)))
				// Already-sorted input must survive unchanged.
				sorted := shuffledParts(ids, uint64(n))
				finalizeParts(&s, sorted)
				checkSortedLike(t, &s, ids, sorted)
			})
		}
	}
}

// FuzzSortByID feeds arbitrary IDs, duplicates included, through the ID
// sort and compares it with sort.Slice.
func FuzzSortByID(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 8*40), ^uint64(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]uint64, len(data)/8)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		var s idSort
		checkSortedLike(t, &s, ids, shuffledParts(ids, uint64(len(ids))))
	})
}
