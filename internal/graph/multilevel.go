package graph

import (
	"cmp"
	"slices"
	"sync"

	"bisectlb/internal/xrand"
)

// Multilevel tuning constants. The values follow the usual
// coarsen → initial-partition → refine shape (PMondriaan, Metis): stop
// coarsening once the graph is small enough for a direct greedy
// bisection, give up when matching stalls, and run a bounded number of
// refinement passes per level so the bisector's cost stays linear-ish.
const (
	// coarseStop is the vertex count below which coarsening stops and the
	// initial bisection runs directly.
	coarseStop = 24
	// minShrink is the minimum relative vertex-count reduction a
	// coarsening round must achieve to continue (stall guard).
	minShrink = 0.05
	// fmPasses bounds the refinement passes per uncoarsening level.
	fmPasses = 2
)

// scratch holds every temporary of one bisection: the coarse levels and
// their fine→coarse maps, the matching, contraction, LPT and repair
// arrays, the per-level sides and the refinement state. Bisections of one
// served instance have similar sizes, so a pooled scratch has grown to fit
// after a few of them and later bisections allocate only their result.
// Nothing is sized up front: every array grows on first use.
type scratch struct {
	levels []*Hypergraph // levels[k] is coarse level k+1
	cmaps  [][]int32     // cmaps[k]: level k vertex → level k+1 vertex

	order   []int32 // matching visit order, LPT order, repair order
	mate    []int32
	conn    []int64 // zero between uses
	touched []int32
	stamp   []int32 // contract: last net that saw a coarse vertex; induce: remap
	deg     []int32 // contract and induce: degrees, then fill cursors

	sides [2][]uint8 // coarse-level sides, by level parity

	cnt   [][2]int32 // refine: pins of each net on each side
	gain  []int64
	lock  []bool
	pos   []int32    // refine: index in its side's heap, or -1
	heaps [2][]int32 // refine: positive-gain unlocked vertices by side
	stack []int32    // refine: heap nodes left to search
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resliced to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bisectSides computes a deterministic two-way partition of h honoring
// the balance band [total−hiCap, hiCap] on both side weights while
// greedily minimising the cut net weight: heavy-connection matching
// coarsens the hypergraph, a weight-sorted greedy (LPT) bisection seeds
// the coarsest level, and boundary FM refinement improves the cut at
// every uncoarsening step without ever leaving the band. The returned
// slice maps each vertex to side 0 or 1. The same (h, hiCap, seed)
// always yields the same sides.
func bisectSides(h *Hypergraph, hiCap int64, seed uint64) []uint8 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	depth := s.coarsen(h, hiCap, seed)
	cur := h
	if depth > 0 {
		cur = s.levels[depth-1]
	}

	// Level k's sides live in out for k = 0 and in the scratch buffer of
	// k's parity otherwise, so projecting level k+1 onto level k never
	// reads the buffer it writes.
	out := make([]uint8, h.NumVertices())
	sidesOf := func(k, nv int) []uint8 {
		if k == 0 {
			return out
		}
		s.sides[k&1] = grow(s.sides[k&1], nv)
		return s.sides[k&1]
	}
	side := sidesOf(depth, cur.NumVertices())
	s.initialLPT(cur, side, hiCap)
	s.refine(cur, side, hiCap)
	for k := depth - 1; k >= 0; k-- {
		fine := h
		if k > 0 {
			fine = s.levels[k-1]
		}
		fineSide := sidesOf(k, fine.NumVertices())
		for v, c := range s.cmaps[k][:fine.NumVertices()] {
			fineSide[v] = side[c]
		}
		side = fineSide
		s.refine(fine, side, hiCap)
	}
	return out
}

// coarsen builds the coarse levels of h into s.levels and returns their
// count. Each round matches the current level and contracts it, until the
// level is small enough for the initial bisection or a round stalls.
func (s *scratch) coarsen(h *Hypergraph, hiCap int64, seed uint64) int {
	// mergeCap bounds coarse vertex weights so the LPT bound
	// floor(W/2) + wmax_coarse stays ≤ hiCap whenever the fine graph was
	// feasible; never below the fine wmax, which already exists anyway.
	mergeCap := hiCap - h.total/2
	if mergeCap < h.wmax {
		mergeCap = h.wmax
	}
	depth := 0
	cur := h
	rng := xrand.New(xrand.Mix(seed, 0xC0A53))
	for cur.NumVertices() > coarseStop {
		cnv := s.match(cur, mergeCap, rng, depth)
		if cnv >= cur.NumVertices() || float64(cur.NumVertices()-cnv) < minShrink*float64(cur.NumVertices()) {
			break
		}
		if depth == len(s.levels) {
			s.levels = append(s.levels, new(Hypergraph))
		}
		s.contract(s.levels[depth], cur, s.cmaps[depth], cnv)
		cur = s.levels[depth]
		depth++
	}
	return depth
}

// match greedily matches each vertex of h with its most heavily
// connected unmatched neighbour (connection weight = Σ weights of shared
// nets), subject to the combined weight staying ≤ mergeCap, and writes
// the fine→coarse map to s.cmaps[k]. Vertices are visited in a seeded
// random order — the standard trick to decorrelate matchings across
// bisection levels — drawn from rng, which the caller seeds
// deterministically. Ties go to the smaller neighbour index. Coarse
// indices are assigned in fine-index order of each group's first member,
// keeping contraction deterministic. It returns the coarse vertex count.
func (s *scratch) match(h *Hypergraph, mergeCap int64, rng *xrand.Source, k int) int {
	nv := h.NumVertices()
	order := grow(s.order, nv)
	for i := range order {
		order[i] = int32(i)
	}
	// Fisher–Yates with the deterministic source.
	for i := nv - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	mate := grow(s.mate, nv)
	for i := range mate {
		mate[i] = -1
	}
	conn := grow(s.conn, nv)
	touched := s.touched[:0]
	for _, v := range order {
		if mate[v] != -1 {
			continue
		}
		// Accumulate connection weight to each eligible neighbour via
		// shared nets; matched or too heavy neighbours can never win.
		touched = touched[:0]
		wv := h.vwgt[v]
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			wn := h.nwgt[n]
			for _, u := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				if u == v || mate[u] != -1 || wv+h.vwgt[u] > mergeCap {
					continue
				}
				if conn[u] == 0 {
					touched = append(touched, u)
				}
				conn[u] += wn
			}
		}
		best := int32(-1)
		var bestConn int64
		for _, u := range touched {
			if conn[u] > bestConn || (conn[u] == bestConn && u < best) {
				best, bestConn = u, conn[u]
			}
			conn[u] = 0
		}
		if best != -1 {
			mate[v], mate[best] = best, v
		}
	}
	// Assign coarse indices by the smallest fine index of each pair.
	if k == len(s.cmaps) {
		s.cmaps = append(s.cmaps, nil)
	}
	cmap := grow(s.cmaps[k], nv)
	cnv := int32(0)
	for v, m := range mate {
		if m == -1 || int(m) > v {
			cmap[v] = cnv
			cnv++
		} else {
			cmap[v] = cmap[m]
		}
	}
	s.order, s.mate, s.conn, s.touched, s.cmaps[k] = order, mate, conn, touched, cmap
	return int(cnv)
}

// contract writes into c the coarse hypergraph of h under cmap: vertex
// weights sum over groups, net pins map through cmap with duplicates
// removed, and nets left with fewer than two distinct coarse pins vanish
// (they can never be cut). Both CSR directions are built in place, nets
// in their fine order and each vertex's nets ascending.
func (s *scratch) contract(c, h *Hypergraph, cmap []int32, cnv int) {
	c.vwgt = grow(c.vwgt, cnv)
	clear(c.vwgt)
	for v, cv := range cmap[:h.NumVertices()] {
		c.vwgt[cv] += h.vwgt[v]
	}
	c.total, c.wmax = 0, 0
	for _, w := range c.vwgt {
		c.total += w
		c.wmax = max(c.wmax, w)
	}
	stamp := grow(s.stamp, cnv)
	for i := range stamp {
		stamp[i] = -1
	}
	deg := grow(s.deg, cnv)
	clear(deg)
	nets := slices.Grow(c.nets[:0], h.NumPins())
	nwgt := slices.Grow(c.nwgt[:0], h.NumNets())
	xnets := append(slices.Grow(c.xnets[:0], h.NumNets()+1), 0)
	for n := 0; n < h.NumNets(); n++ {
		start := len(nets)
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			if cv := cmap[v]; stamp[cv] != int32(n) {
				stamp[cv] = int32(n)
				nets = append(nets, cv)
			}
		}
		if len(nets)-start < 2 {
			nets = nets[:start]
			continue
		}
		for _, cv := range nets[start:] {
			deg[cv]++
		}
		nwgt = append(nwgt, h.nwgt[n])
		xnets = append(xnets, int32(len(nets)))
	}
	c.nets, c.nwgt, c.xnets = nets, nwgt, xnets
	c.xpins = grow(c.xpins, cnv+1)
	c.pins = grow(c.pins, len(nets))
	transpose(c, deg)
	s.stamp, s.deg = stamp, deg
}

// transpose fills h.xpins and h.pins, the vertex → nets direction, from
// the net → pins direction and each vertex's degree in deg, which it uses
// up as fill cursors. Nets are visited in order, so every vertex lists its
// nets ascending.
func transpose(h *Hypergraph, deg []int32) {
	nv := h.NumVertices()
	h.xpins[0] = 0
	for v := 0; v < nv; v++ {
		h.xpins[v+1] = h.xpins[v] + deg[v]
	}
	fill := deg[:nv]
	copy(fill, h.xpins[:nv])
	for n := 0; n < h.NumNets(); n++ {
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			h.pins[fill[v]] = int32(n)
			fill[v]++
		}
	}
}

// insertionSortMax is the vertex count up to which initialLPT sorts by
// insertion. Coarsening usually stops at 24 vertices or fewer, where
// pdqsort through a comparator closure costs more than the sort itself.
const insertionSortMax = 32

// initialLPT seeds the coarsest bisection into side: vertices sorted by
// weight descending (index ascending on ties) are assigned greedily to
// the lighter side. For two bins this keeps the heavier side at most
// floor(W/2) + wmax_coarse, which the coarsening mergeCap ties back to
// hiCap whenever the fine problem was feasible.
func (s *scratch) initialLPT(h *Hypergraph, side []uint8, hiCap int64) {
	vw := h.vwgt
	order := grow(s.order, len(vw))
	for i := range order {
		order[i] = int32(i)
	}
	if len(order) <= insertionSortMax {
		// A stable insertion sort by weight keeps the index order of
		// ties, so it yields the same total order as the sort below.
		for i := 1; i < len(order); i++ {
			v, j := order[i], i
			for ; j > 0 && vw[order[j-1]] < vw[v]; j-- {
				order[j] = order[j-1]
			}
			order[j] = v
		}
	} else {
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(vw[b], vw[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	var w0, w1 int64
	for _, v := range order {
		if w1 < w0 {
			side[v] = 1
			w1 += vw[v]
		} else {
			side[v] = 0
			w0 += vw[v]
		}
	}
	s.order = order
	// Defensive repair: if the greedy seed somehow exceeds the cap (only
	// possible when the caller admitted an infeasible instance), shift the
	// lightest vertices of the heavy side over until within band or stuck.
	s.repair(h, side, hiCap)
}

// repair moves lightest-first vertices off an over-cap side. It is a
// no-op for feasible instances; Problem.CanBisect re-checks the band
// after bisection, so a stuck repair surfaces as an indivisible leaf,
// never as a silent contract breach.
func (s *scratch) repair(h *Hypergraph, side []uint8, hiCap int64) {
	vw := h.vwgt
	var w [2]int64
	for v, sd := range side {
		w[sd] += vw[v]
	}
	for from := 0; from < 2; from++ {
		if w[from] <= hiCap {
			continue
		}
		order := s.order[:0]
		for v := range side {
			if side[v] == uint8(from) {
				order = append(order, int32(v))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(vw[a], vw[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		s.order = order
		to := 1 - from
		for _, v := range order {
			if w[from] <= hiCap {
				break
			}
			if w[to]+vw[v] > hiCap {
				continue
			}
			side[v] = uint8(to)
			w[from] -= vw[v]
			w[to] += vw[v]
		}
	}
}

// refine runs bounded greedy boundary-FM passes: repeatedly move the
// vertex with the best positive cut gain whose move keeps both sides
// inside the band, the smallest index among equal gains, locking each
// moved vertex for the rest of the pass. Only strictly improving moves
// are taken, so the cut decreases monotonically and the loop terminates.
//
// A positive gain needs a net on which the vertex is alone on its side
// while the net has other pins, so every candidate is a pin of a cut net.
// The side counts and gains are computed once and kept current across
// moves and passes: a move changes the gains only of pins of the moved
// vertex's nets, and only on nets whose side counts cross 0, 1 or 2. The
// candidates sit in one indexed max-heap per side, ordered by gain
// descending, then index ascending, rebuilt at the start of each pass.
func (s *scratch) refine(h *Hypergraph, side []uint8, hiCap int64) {
	nv := h.NumVertices()
	nn := h.NumNets()
	if nv == 0 || nn == 0 {
		return
	}
	lo := h.total - hiCap
	vw := h.vwgt
	var w [2]int64
	for v, sd := range side {
		w[sd] += vw[v]
	}
	// A pin gains its net's weight when it is alone on its side of a cut
	// net and loses it when the net is uncut (a single-pin net nets zero).
	cnt := grow(s.cnt, nn)
	gain := grow(s.gain, nv)
	clear(gain)
	for n := range cnt {
		pins := h.nets[h.xnets[n]:h.xnets[n+1]]
		var c [2]int32
		for _, v := range pins {
			c[side[v]]++
		}
		cnt[n] = c
		wn := h.nwgt[n]
		switch {
		case len(pins) < 2:
		case c[0] == 0 || c[1] == 0:
			for _, v := range pins {
				gain[v] -= wn
			}
		case c[0] == 1 || c[1] == 1:
			for _, v := range pins {
				if c[side[v]] == 1 {
					gain[v] += wn
				}
			}
		}
	}
	lock := grow(s.lock, nv)
	pos := grow(s.pos, nv)
	q := vheap{h: s.heaps, gain: gain, pos: pos}
	for pass := 0; pass < fmPasses; pass++ {
		q.h[0], q.h[1] = q.h[0][:0], q.h[1][:0]
		for v, g := range gain {
			lock[v], pos[v] = false, -1
			if g > 0 {
				sd := side[v]
				pos[v] = int32(len(q.h[sd]))
				q.h[sd] = append(q.h[sd], int32(v))
			}
		}
		q.init(0)
		q.init(1)
		improved := false
		for {
			// A vertex of side a may move iff its weight is at most
			// room[a]; take the better of the two sides' best movers.
			best := int32(-1)
			for a := 0; a < 2; a++ {
				room := min(w[a]-lo, hiCap-w[1-a])
				if v := s.bestMover(&q, a, vw, room); v != -1 && (best == -1 || q.before(v, best)) {
					best = v
				}
			}
			if best == -1 {
				break
			}
			from := side[best]
			to := 1 - from
			q.remove(from, best)
			lock[best] = true
			for _, n := range h.pins[h.xpins[best]:h.xpins[best+1]] {
				// Gain change of the other pins on each side as best
				// crosses over: the net's counts go (f, t) → (f−1, t+1).
				f, t := cnt[n][from], cnt[n][to]
				cnt[n][from], cnt[n][to] = f-1, t+1
				var dFrom, dTo int64
				wn := h.nwgt[n]
				if t == 0 {
					dFrom += wn // the net was uncut: its other pins lose the penalty
				}
				if f == 2 {
					dFrom += wn // the one pin left behind can now uncut the net
				}
				if t == 1 {
					dTo -= wn // the lone pin on the far side no longer uncuts it
				}
				if f == 1 {
					dTo -= wn // the net is now uncut: moving any pin cuts it
				}
				if dFrom == 0 && dTo == 0 {
					continue
				}
				for _, u := range h.nets[h.xnets[n]:h.xnets[n+1]] {
					if u == best {
						continue
					}
					d := dTo
					if side[u] == from {
						d = dFrom
					}
					switch {
					case d == 0:
					case lock[u]:
						gain[u] += d // kept current for the next pass
					default:
						q.update(side[u], u, gain[u]+d)
					}
				}
			}
			// Moving back would undo every net's change.
			gain[best] = -gain[best]
			w[from] -= vw[best]
			w[to] += vw[best]
			side[best] = to
			improved = true
		}
		if !improved {
			break
		}
	}
	s.cnt, s.gain, s.lock, s.pos, s.heaps = cnt, gain, lock, pos, q.h
}

// bestMover returns the first vertex, in heap order, of side a's heap
// whose weight is at most room, or -1. Every descendant of a heap node
// comes after it, so the search stops descending at a mover and skips any
// subtree whose root comes after the best mover found so far.
func (s *scratch) bestMover(q *vheap, a int, vw []int64, room int64) int32 {
	hp := q.h[a]
	if len(hp) == 0 || room < 1 {
		return -1
	}
	if vw[hp[0]] <= room {
		return hp[0]
	}
	best := int32(-1)
	stack := append(s.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := hp[i]
		if best != -1 && !q.before(v, best) {
			continue
		}
		if vw[v] <= room {
			best = v
			continue
		}
		for c := 2*i + 1; c <= 2*i+2 && int(c) < len(hp); c++ {
			stack = append(stack, c)
		}
	}
	s.stack = stack
	return best
}

// vheap is a pair of indexed binary max-heaps of vertices, one per side,
// ordered by gain descending, then vertex index ascending. pos[v] is v's
// index in its side's heap, or -1 when v is in neither; a vertex is in a
// heap exactly while it is unlocked with a positive gain.
type vheap struct {
	h    [2][]int32
	gain []int64
	pos  []int32
}

// before reports whether u is chosen ahead of v.
func (q *vheap) before(u, v int32) bool {
	gu, gv := q.gain[u], q.gain[v]
	return gu > gv || (gu == gv && u < v)
}

func (q *vheap) init(a int) {
	for i := len(q.h[a])/2 - 1; i >= 0; i-- {
		q.down(a, i)
	}
}

// update sets u's gain to g and restores u's membership and position in
// side a's heap.
func (q *vheap) update(a uint8, u int32, g int64) {
	old := q.gain[u]
	q.gain[u] = g
	i := int(q.pos[u])
	switch {
	case i == -1 && g > 0:
		q.pos[u] = int32(len(q.h[a]))
		q.h[a] = append(q.h[a], u)
		q.up(int(a), len(q.h[a])-1)
	case i == -1:
	case g <= 0:
		q.remove(a, u)
	case g > old:
		q.up(int(a), i)
	default:
		q.down(int(a), i)
	}
}

// remove takes u out of side a's heap.
func (q *vheap) remove(a uint8, u int32) {
	hp := q.h[a]
	i, last := int(q.pos[u]), len(hp)-1
	q.pos[u] = -1
	if i != last {
		hp[i] = hp[last]
		q.pos[hp[i]] = int32(i)
	}
	q.h[a] = hp[:last]
	if i != last {
		q.down(int(a), i)
		q.up(int(a), i)
	}
}

func (q *vheap) up(a, i int) {
	hp := q.h[a]
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(hp[i], hp[p]) {
			break
		}
		hp[i], hp[p] = hp[p], hp[i]
		q.pos[hp[i]], q.pos[hp[p]] = int32(i), int32(p)
		i = p
	}
}

func (q *vheap) down(a, i int) {
	hp := q.h[a]
	for {
		c := 2*i + 1
		if c >= len(hp) {
			return
		}
		if c+1 < len(hp) && q.before(hp[c+1], hp[c]) {
			c++
		}
		if !q.before(hp[c], hp[i]) {
			return
		}
		hp[i], hp[c] = hp[c], hp[i]
		q.pos[hp[i]], q.pos[hp[c]] = int32(i), int32(c)
		i = c
	}
}

// CutWeight returns the total weight of nets with pins on both sides of
// the given assignment — the quality measure the refinement minimises.
func CutWeight(h *Hypergraph, side []uint8) int64 {
	var cut int64
	for n := 0; n < h.NumNets(); n++ {
		var c [2]int32
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			c[side[v]]++
		}
		if c[0] > 0 && c[1] > 0 {
			cut += h.nwgt[n]
		}
	}
	return cut
}
