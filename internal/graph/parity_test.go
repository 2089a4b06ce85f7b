package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"bisectlb/internal/xrand"
)

// The oracle below is a frozen copy of the allocation-per-level multilevel
// bisector: heavy-connection matching with fresh arrays, contraction
// through FromNets, a sort.Slice LPT seed and repair, FM refinement that
// recomputes every boundary gain before each move, and the append-built
// induce. The production bisector must return the same sides byte for
// byte, build the same coarse levels and induce the same children.

// oracleLevels is the oracle's coarsening: every level below h, each
// built by oracleMatch and oracleContract.
func oracleLevels(h *Hypergraph, hiCap int64, seed uint64) []*Hypergraph {
	mergeCap := hiCap - h.total/2
	if mergeCap < h.wmax {
		mergeCap = h.wmax
	}
	var levels []*Hypergraph
	cur := h
	rng := xrand.New(xrand.Mix(seed, 0xC0A53))
	for cur.NumVertices() > coarseStop {
		cmap, cnv := oracleMatch(cur, mergeCap, rng)
		if cnv >= cur.NumVertices() || float64(cur.NumVertices()-cnv) < minShrink*float64(cur.NumVertices()) {
			break
		}
		cur = oracleContract(cur, cmap, cnv)
		levels = append(levels, cur)
	}
	return levels
}

func oracleBisectSides(h *Hypergraph, hiCap int64, seed uint64) []uint8 {
	mergeCap := hiCap - h.total/2
	if mergeCap < h.wmax {
		mergeCap = h.wmax
	}
	type level struct {
		h    *Hypergraph
		cmap []int32
	}
	levels := []level{{h: h}}
	cur := h
	rng := xrand.New(xrand.Mix(seed, 0xC0A53))
	for cur.NumVertices() > coarseStop {
		cmap, cnv := oracleMatch(cur, mergeCap, rng)
		if cnv >= cur.NumVertices() || float64(cur.NumVertices()-cnv) < minShrink*float64(cur.NumVertices()) {
			break
		}
		coarse := oracleContract(cur, cmap, cnv)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{h: coarse})
		cur = coarse
	}
	side := oracleLPT(cur, hiCap)
	oracleRefine(cur, side, hiCap)
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		fineSide := make([]uint8, fine.h.NumVertices())
		for v := range fineSide {
			fineSide[v] = side[fine.cmap[v]]
		}
		side = fineSide
		oracleRefine(fine.h, side, hiCap)
	}
	return side
}

func oracleMatch(h *Hypergraph, mergeCap int64, rng *xrand.Source) ([]int32, int) {
	nv := h.NumVertices()
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	for i := nv - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	mate := make([]int32, nv)
	for i := range mate {
		mate[i] = -1
	}
	conn := make([]int64, nv)
	touched := make([]int32, 0, 32)
	for _, v := range order {
		if mate[v] != -1 {
			continue
		}
		touched = touched[:0]
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			for _, u := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				if u == v {
					continue
				}
				if conn[u] == 0 {
					touched = append(touched, u)
				}
				conn[u] += h.nwgt[n]
			}
		}
		best := int32(-1)
		var bestConn int64
		for _, u := range touched {
			if mate[u] == -1 && h.vwgt[v]+h.vwgt[u] <= mergeCap {
				if conn[u] > bestConn || (conn[u] == bestConn && (best == -1 || u < best)) {
					best, bestConn = u, conn[u]
				}
			}
			conn[u] = 0
		}
		if best != -1 {
			mate[v], mate[best] = best, v
		}
	}
	cmap := make([]int32, nv)
	for i := range cmap {
		cmap[i] = -1
	}
	cnv := 0
	for v := 0; v < nv; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = int32(cnv)
		if m := mate[v]; m != -1 {
			cmap[m] = int32(cnv)
		}
		cnv++
	}
	return cmap, cnv
}

func oracleContract(h *Hypergraph, cmap []int32, cnv int) *Hypergraph {
	vw := make([]int64, cnv)
	for v, c := range cmap {
		vw[c] += h.vwgt[v]
	}
	var netPins [][]int32
	var nw []int64
	seen := make([]int32, cnv)
	for i := range seen {
		seen[i] = -1
	}
	for n := 0; n < h.NumNets(); n++ {
		var pins []int32
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			c := cmap[v]
			if seen[c] != int32(n) {
				seen[c] = int32(n)
				pins = append(pins, c)
			}
		}
		if len(pins) >= 2 {
			netPins = append(netPins, pins)
			nw = append(nw, h.nwgt[n])
		}
	}
	coarse, err := FromNets(cnv, vw, netPins, nw)
	if err != nil {
		panic("graph: contract produced invalid hypergraph: " + err.Error())
	}
	return coarse
}

func oracleLPT(h *Hypergraph, hiCap int64) []uint8 {
	nv := h.NumVertices()
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if h.vwgt[a] != h.vwgt[b] {
			return h.vwgt[a] > h.vwgt[b]
		}
		return a < b
	})
	side := make([]uint8, nv)
	var w0, w1 int64
	for _, v := range order {
		if w1 < w0 {
			side[v] = 1
			w1 += h.vwgt[v]
		} else {
			side[v] = 0
			w0 += h.vwgt[v]
		}
	}
	oracleRepair(h, side, hiCap)
	return side
}

func oracleRepair(h *Hypergraph, side []uint8, hiCap int64) {
	var w [2]int64
	for v, s := range side {
		w[s] += h.vwgt[v]
	}
	for from := 0; from < 2; from++ {
		if w[from] <= hiCap {
			continue
		}
		order := make([]int32, 0, len(side))
		for v := range side {
			if side[v] == uint8(from) {
				order = append(order, int32(v))
			}
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if h.vwgt[a] != h.vwgt[b] {
				return h.vwgt[a] < h.vwgt[b]
			}
			return a < b
		})
		to := 1 - from
		for _, v := range order {
			if w[from] <= hiCap {
				break
			}
			if w[to]+h.vwgt[v] > hiCap {
				continue
			}
			side[v] = uint8(to)
			w[from] -= h.vwgt[v]
			w[to] += h.vwgt[v]
		}
	}
}

func oracleRefine(h *Hypergraph, side []uint8, hiCap int64) {
	nv := h.NumVertices()
	nn := h.NumNets()
	if nv == 0 || nn == 0 {
		return
	}
	lo := h.total - hiCap
	cnt := make([][2]int32, nn)
	var w [2]int64
	recount := func() {
		for n := range cnt {
			cnt[n] = [2]int32{}
		}
		w = [2]int64{}
		for v := 0; v < nv; v++ {
			w[side[v]] += h.vwgt[v]
		}
		for n := 0; n < nn; n++ {
			for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				cnt[n][side[v]]++
			}
		}
	}
	gain := func(v int32) int64 {
		s := side[v]
		var g int64
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			if cnt[n][s] == 1 {
				g += h.nwgt[n]
			}
			if cnt[n][1-s] == 0 {
				g -= h.nwgt[n]
			}
		}
		return g
	}
	locked := make([]bool, nv)
	for pass := 0; pass < fmPasses; pass++ {
		recount()
		for i := range locked {
			locked[i] = false
		}
		improved := false
		for moves := 0; moves < nv; moves++ {
			best := int32(-1)
			var bestGain int64
			for n := 0; n < nn; n++ {
				if cnt[n][0] == 0 || cnt[n][1] == 0 {
					continue
				}
				for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
					if locked[v] {
						continue
					}
					s := side[v]
					if w[s]-h.vwgt[v] < lo || w[1-s]+h.vwgt[v] > hiCap {
						continue
					}
					if g := gain(v); g > bestGain || (g == bestGain && g > 0 && (best == -1 || v < best)) {
						best, bestGain = v, g
					}
				}
			}
			if best == -1 || bestGain <= 0 {
				break
			}
			s := side[best]
			for _, n := range h.pins[h.xpins[best]:h.xpins[best+1]] {
				cnt[n][s]--
				cnt[n][1-s]++
			}
			w[s] -= h.vwgt[best]
			w[1-s] += h.vwgt[best]
			side[best] = 1 - s
			locked[best] = true
			improved = true
		}
		if !improved {
			break
		}
	}
}

func oracleInduce(h *Hypergraph, side []uint8, s uint8) *Hypergraph {
	nv := 0
	remap := make([]int32, len(h.vwgt))
	for v := range h.vwgt {
		if side[v] == s {
			remap[v] = int32(nv)
			nv++
		} else {
			remap[v] = -1
		}
	}
	sub := &Hypergraph{
		vwgt:  make([]int64, 0, nv),
		xpins: make([]int32, nv+1),
	}
	for v, w := range h.vwgt {
		if side[v] == s {
			sub.vwgt = append(sub.vwgt, w)
			sub.total += w
			if w > sub.wmax {
				sub.wmax = w
			}
		}
	}
	deg := make([]int32, nv)
	sub.xnets = append(sub.xnets, 0)
	for n := 0; n < h.NumNets(); n++ {
		cnt := 0
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			if side[v] == s {
				cnt++
			}
		}
		if cnt < 2 {
			continue
		}
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			if side[v] == s {
				sub.nets = append(sub.nets, remap[v])
				deg[remap[v]]++
			}
		}
		sub.nwgt = append(sub.nwgt, h.nwgt[n])
		sub.xnets = append(sub.xnets, int32(len(sub.nets)))
	}
	for v := 0; v < nv; v++ {
		sub.xpins[v+1] = sub.xpins[v] + deg[v]
	}
	sub.pins = make([]int32, len(sub.nets))
	fill := make([]int32, nv)
	copy(fill, sub.xpins[:nv])
	for n := 0; n < sub.NumNets(); n++ {
		for _, v := range sub.nets[sub.xnets[n]:sub.xnets[n+1]] {
			sub.pins[fill[v]] = int32(n)
			fill[v]++
		}
	}
	return sub
}

// sameHypergraph reports the first field in which a and b differ. Slices
// compare by contents, so an empty slice equals a nil one.
func sameHypergraph(a, b *Hypergraph) error {
	switch {
	case !slices.Equal(a.vwgt, b.vwgt):
		return fmt.Errorf("vwgt %v, want %v", a.vwgt, b.vwgt)
	case !slices.Equal(a.nwgt, b.nwgt):
		return fmt.Errorf("nwgt %v, want %v", a.nwgt, b.nwgt)
	case !slices.Equal(a.xpins, b.xpins):
		return fmt.Errorf("xpins %v, want %v", a.xpins, b.xpins)
	case !slices.Equal(a.pins, b.pins):
		return fmt.Errorf("pins %v, want %v", a.pins, b.pins)
	case !slices.Equal(a.xnets, b.xnets):
		return fmt.Errorf("xnets %v, want %v", a.xnets, b.xnets)
	case !slices.Equal(a.nets, b.nets):
		return fmt.Errorf("nets %v, want %v", a.nets, b.nets)
	case a.total != b.total || a.wmax != b.wmax:
		return fmt.Errorf("total/wmax %d/%d, want %d/%d", a.total, a.wmax, b.total, b.wmax)
	}
	return nil
}

// checkCSR verifies the structural invariants of a bisector-built
// hypergraph: both CSR directions well-formed and mutually transposed
// (each vertex lists its nets in ascending order), pins in range, no pin
// twice in a net, every net with at least two pins, and total and wmax
// equal to the vertex weights' sum and maximum.
func checkCSR(h *Hypergraph) error {
	nv, nn := len(h.vwgt), len(h.nwgt)
	if len(h.xpins) != nv+1 || len(h.xnets) != nn+1 || h.xpins[0] != 0 || h.xnets[0] != 0 {
		return fmt.Errorf("offset arrays %d/%d for %d vertices, %d nets", len(h.xpins), len(h.xnets), nv, nn)
	}
	if int(h.xnets[nn]) != len(h.nets) || int(h.xpins[nv]) != len(h.pins) || len(h.nets) != len(h.pins) {
		return fmt.Errorf("pin counts %d/%d/%d/%d", h.xnets[nn], len(h.nets), h.xpins[nv], len(h.pins))
	}
	var total, wmax int64
	for _, w := range h.vwgt {
		if w < 1 {
			return fmt.Errorf("vertex weight %d", w)
		}
		total += w
		wmax = max(wmax, w)
	}
	if total != h.total || wmax != h.wmax {
		return fmt.Errorf("total/wmax %d/%d, sums %d/%d", h.total, h.wmax, total, wmax)
	}
	deg := make([]int32, nv)
	seen := make([]int, nv)
	for n := 0; n < nn; n++ {
		lo, hi := h.xnets[n], h.xnets[n+1]
		if hi-lo < 2 {
			return fmt.Errorf("net %d has %d pins", n, hi-lo)
		}
		for _, v := range h.nets[lo:hi] {
			if v < 0 || int(v) >= nv {
				return fmt.Errorf("net %d pin %d out of range", n, v)
			}
			if seen[v] == n+1 {
				return fmt.Errorf("net %d lists vertex %d twice", n, v)
			}
			seen[v] = n + 1
			// The transpose lists v's nets in ascending order, so net n is
			// the deg[v]-th entry of v's list.
			if at := h.xpins[v] + deg[v]; at >= h.xpins[v+1] || h.pins[at] != int32(n) {
				return fmt.Errorf("vertex %d's net list does not hold net %d in order", v, n)
			}
			deg[v]++
		}
	}
	for v := 0; v < nv; v++ {
		if h.xpins[v+1]-h.xpins[v] != deg[v] {
			return fmt.Errorf("vertex %d lists %d nets, is in %d", v, h.xpins[v+1]-h.xpins[v], deg[v])
		}
	}
	return nil
}

// checkAgainstOracle compares one bisection of h with the oracle: the
// coarse levels field by field (each also passing checkCSR), the sides
// byte for byte, and both induced children field by field.
func checkAgainstOracle(h *Hypergraph, hiCap int64, seed uint64) ([]uint8, error) {
	want := oracleLevels(h, hiCap, seed)
	got := coarseLevels(h, hiCap, seed)
	if len(got) != len(want) {
		return nil, fmt.Errorf("%d coarse levels, want %d", len(got), len(want))
	}
	for i := range got {
		if err := checkCSR(got[i]); err != nil {
			return nil, fmt.Errorf("coarse level %d: %v", i+1, err)
		}
		if err := sameHypergraph(got[i], want[i]); err != nil {
			return nil, fmt.Errorf("coarse level %d: %v", i+1, err)
		}
	}
	wantSides := oracleBisectSides(h, hiCap, seed)
	sides := bisectSides(h, hiCap, seed)
	if !slices.Equal(sides, wantSides) {
		return nil, fmt.Errorf("sides %v, want %v", sides, wantSides)
	}
	var subs [2]Hypergraph
	h.induce(sides, &subs[0], &subs[1])
	for s := uint8(0); s < 2; s++ {
		sub := &subs[s]
		if err := checkCSR(sub); err != nil && sub.NumVertices() > 0 {
			return nil, fmt.Errorf("child %d: %v", s, err)
		}
		if err := sameHypergraph(sub, oracleInduce(h, wantSides, s)); err != nil {
			return nil, fmt.Errorf("child %d: %v", s, err)
		}
	}
	return sides, nil
}

// parityInstance is one roster entry of the parity test.
type parityInstance struct {
	name string
	h    *Hypergraph
}

// parityRoster builds 300 seeded instances of each generator kind (grids,
// chorded rings and random hypergraphs, vertex weights spread over 1–4)
// plus the checked-in testdata instances.
func parityRoster(t *testing.T) []parityInstance {
	t.Helper()
	var out []parityInstance
	add := func(name string, h *Hypergraph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, parityInstance{name, h})
	}
	for seed := uint64(1); seed <= 300; seed++ {
		r := xrand.New(xrand.Mix(seed, 0x9A217))
		spread := int64(1 + r.Intn(4))
		rows, cols := 2+r.Intn(19), 2+r.Intn(19)
		h, err := GridGraph(rows, cols, spread, seed)
		add(fmt.Sprintf("grid%dx%d/w%d/seed=%d", rows, cols, spread, seed), h, err)
		nv := 3 + r.Intn(250)
		chords := r.Intn(nv/2 + 1)
		h, err = RingGraph(nv, chords, spread, seed)
		add(fmt.Sprintf("ring%d+%d/w%d/seed=%d", nv, chords, spread, seed), h, err)
		nv = 2 + r.Intn(200)
		nets := 1 + r.Intn(2*nv)
		maxPin := 2 + r.Intn(min(7, nv-1))
		h, err = RandomHypergraph(nv, nets, maxPin, spread, seed)
		add(fmt.Sprintf("hyper%d/%d/%d/w%d/seed=%d", nv, nets, maxPin, spread, seed), h, err)
	}
	for _, name := range []string{"grid6x6.graph", "tri.hgr"} {
		out = append(out, parityInstance{name, loadTestdata(t, name)})
	}
	return out
}

func TestBisectSidesMatchesOracle(t *testing.T) {
	const depth = 6
	bisections := 0
	for i, inst := range parityRoster(t) {
		for _, eps := range []float64{0.02, 0.1, 0.3} {
			root := mustProblem(t, inst.h, Config{Eps: eps, Seed: xrand.Mix(uint64(i+1), math.Float64bits(eps))})
			var walk func(p *Problem, path string)
			walk = func(p *Problem, path string) {
				if p.depth >= depth || p.graph().NumVertices() < 2 {
					return
				}
				bisections++
				seed := xrand.Mix(p.id, 0xB15EC7)
				want, err := checkAgainstOracle(p.graph(), p.hiCap(), seed)
				if err != nil {
					t.Fatalf("%s eps=%v node %s: %v", inst.name, eps, path, err)
				}
				if !p.CanBisect() {
					return
				}
				a, b := p.Bisect()
				pa, pb := a.(*Problem), b.(*Problem)
				heavy, light := oracleInduce(p.graph(), want, 0), oracleInduce(p.graph(), want, 1)
				if light.total > heavy.total {
					heavy, light = light, heavy
				}
				for i, c := range []struct {
					got  *Problem
					want *Hypergraph
					id   uint64
				}{{pa, heavy, xrand.Mix(p.id, 1)}, {pb, light, xrand.Mix(p.id, 2)}} {
					if err := sameHypergraph(c.got.graph(), c.want); err != nil {
						t.Fatalf("%s eps=%v node %s child %d: %v", inst.name, eps, path, i, err)
					}
					if c.got.id != c.id || c.got.total != c.want.total || c.got.depth != p.depth+1 || c.got.eps != p.eps || c.got.rec != p.rec {
						t.Fatalf("%s eps=%v node %s child %d: id/depth/eps %d/%d/%v", inst.name, eps, path, i, c.got.id, c.got.depth, c.got.eps)
					}
				}
				walk(pa, path+"0")
				walk(pb, path+"1")
			}
			walk(root, "r")
		}
	}
	t.Logf("%d bisections match the oracle", bisections)
}

// FuzzBisectSides builds a small hypergraph and a balance slack from the
// input bytes and checks one bisection of it against the oracle: coarse
// levels, sides and both induced children. Byte 0 sets the vertex count,
// byte 1 the slack, byte 2 the seed and the weight spread; the rest is a
// list of nets, each a size byte followed by its pins (duplicates
// dropped, so single-pin nets occur). Bytes past the 512th are ignored.
func FuzzBisectSides(f *testing.F) {
	f.Add([]byte{6, 40, 1, 2, 0, 1, 2, 1, 2, 2, 3, 4, 5})
	f.Add([]byte{40, 10, 7, 0, 0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 4, 4, 5, 6, 7, 8, 9, 2, 10, 11, 12, 13, 0, 20, 21})
	f.Add([]byte{63, 250, 3, 5, 1, 2, 3, 4, 5, 6, 7, 5, 8, 9, 10, 11, 12, 13, 14, 1, 30, 31, 1, 32, 33})
	f.Add([]byte{2, 0, 255, 0, 0, 1})
	f.Add([]byte{30, 128, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// The oracle's refinement is quadratic in the pin count; longer
		// inputs only add parallel nets.
		data = data[:min(len(data), 512)]
		nv := 2 + int(data[0])%62
		eps := (float64(data[1]) + 1) / 258 // (0, 1)
		seed := uint64(data[2])
		spread := uint64(1 + data[2]%4)
		rng := xrand.New(seed)
		vw := make([]int64, nv)
		for v := range vw {
			vw[v] = 1 + int64(rng.Uint64()%spread)
		}
		var netPins [][]int32
		var nw []int64
		rest := data[3:]
		for len(rest) > 0 {
			k := 2 + int(rest[0])%6
			w := 1 + int64(rest[0]/6)%3
			rest = rest[1:]
			var pins []int32
			for ; k > 0 && len(rest) > 0; k-- {
				v := int32(int(rest[0]) % nv)
				rest = rest[1:]
				if !slices.Contains(pins, v) {
					pins = append(pins, v)
				}
			}
			netPins = append(netPins, pins)
			nw = append(nw, w)
		}
		h, err := FromNets(nv, vw, netPins, nw)
		if err != nil {
			t.Fatal(err)
		}
		hiCap := int64(math.Floor((1 + eps) * float64(h.total) / 2))
		if _, err := checkAgainstOracle(h, hiCap, xrand.Mix(seed, 0xB15EC7)); err != nil {
			t.Fatalf("nv=%d eps=%v seed=%d: %v", nv, eps, seed, err)
		}
	})
}
