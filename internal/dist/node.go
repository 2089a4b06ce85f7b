package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/obs"
)

// Node is one cluster member. It owns the virtual-processor segment
// [id·N/K, (id+1)·N/K), executes the BA recursion for subproblems whose
// range starts inside its segment, forwards escaping subranges to peers
// and streams finished parts to the coordinator.
//
// All hand-offs are acknowledged transfers: every data message carries an
// ID derived from the subproblem's bisection seed, the receiver dedups
// and acks, and the sender retries with exponential backoff and seeded
// jitter until the ack arrives. Because the synthetic bisection stream is
// deterministic, re-executing a subproblem (after a crash or a lease
// re-issue) reproduces the exact same message IDs, so duplicated work
// collapses at every receiver instead of corrupting the partition.
type Node struct {
	ID int
	N  int // virtual processors in the whole cluster
	K  int // number of nodes

	ln        net.Listener
	peerAddrs []string // index = node id
	coordAddr string

	plan *FaultPlan
	tm   Timing
	fs   *faultState
	acks *ackWaiters
	reg  *obs.Registry

	mu    sync.Mutex
	links map[int]*link // dialled links; coordinator is linkCoord
	conns []net.Conn    // every conn we own (accepted + dialled)
	// seen maps an assign ID to 1 + the highest re-issue generation this
	// node has executed (1 after a first delivery, which has Gen 0).
	seen     map[uint64]uint64
	receipts map[uint64]uint64
	adopt    map[int]int // dead node → adopter, per coordinator updates
	beatSeq  uint64
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// linkCoord is the links-map key for the coordinator.
const linkCoord = -1

// NewNode creates a node listening on addr (use "127.0.0.1:0" to pick a
// free port). Peer and coordinator addresses are supplied via Start once
// the whole cluster is known.
func NewNode(id, n, k int, addr string) (*Node, error) {
	if k < 1 || id < 0 || id >= k {
		return nil, fmt.Errorf("dist: node id %d outside [0, %d)", id, k)
	}
	if n < k {
		return nil, fmt.Errorf("dist: %d virtual processors cannot cover %d nodes", n, k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: node %d listen: %w", id, err)
	}
	return &Node{
		ID: id, N: n, K: k,
		ln:       ln,
		tm:       DefaultTiming(),
		acks:     newAckWaiters(),
		reg:      obs.NewRegistry(),
		links:    make(map[int]*link),
		seen:     make(map[uint64]uint64),
		receipts: make(map[uint64]uint64),
		adopt:    make(map[int]int),
		done:     make(chan struct{}),
	}, nil
}

// SetFault installs a fault plan. Must be called before Start.
func (nd *Node) SetFault(plan *FaultPlan) { nd.plan = plan }

// SetTiming overrides the protocol clocks. Must be called before Start.
func (nd *Node) SetTiming(tm Timing) { nd.tm = tm.withDefaults() }

// Stats returns the node's fault-layer counters.
func (nd *Node) Stats() FaultStats { return nd.fs.Stats() }

// Metrics returns the node's metric registry: send/retry/dedup counters
// and the ack round-trip and backoff latency histograms.
func (nd *Node) Metrics() *obs.Registry { return nd.reg }

// Addr returns the node's listen address.
func (nd *Node) Addr() string { return nd.ln.Addr().String() }

// segmentOwner returns the node owning virtual processor p. Segments
// follow the same arithmetic everywhere — node k owns [k·N/K, (k+1)·N/K) —
// and the owner is found by scanning the boundaries, which is exact even
// for ragged divisions and cheap for realistic node counts.
func segmentOwner(p, n, k int) int {
	for node := 0; node < k; node++ {
		if p < (node+1)*n/k {
			return node
		}
	}
	return k - 1
}

// resolveOwner maps a virtual processor to the node currently responsible
// for it: the segment owner, rerouted through the adoption chain for
// nodes the coordinator has declared dead.
func (nd *Node) resolveOwner(proc int) int {
	o := segmentOwner(proc, nd.N, nd.K)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for i := 0; i < nd.K; i++ {
		a, ok := nd.adopt[o]
		if !ok {
			break
		}
		o = a
	}
	return o
}

// Start begins serving. peerAddrs[i] must be node i's address; coordAddr
// the coordinator's.
func (nd *Node) Start(peerAddrs []string, coordAddr string) error {
	if len(peerAddrs) != nd.K {
		return fmt.Errorf("dist: %d peer addresses for %d nodes", len(peerAddrs), nd.K)
	}
	nd.peerAddrs = append([]string(nil), peerAddrs...)
	nd.coordAddr = coordAddr
	nd.fs = newFaultState(nd.plan, nd.ID, func() { nd.Kill() }, nd.reg)
	nd.wg.Add(2)
	go nd.acceptLoop()
	go nd.heartbeatLoop()
	return nil
}

func (nd *Node) acceptLoop() {
	defer nd.wg.Done()
	for {
		conn, err := nd.ln.Accept()
		if err != nil {
			return // listener closed
		}
		lk := newLink(conn, nd.fs)
		nd.mu.Lock()
		if nd.closed {
			nd.mu.Unlock()
			_ = conn.Close()
			return
		}
		nd.conns = append(nd.conns, conn)
		nd.mu.Unlock()
		nd.wg.Add(1)
		go nd.readLoop(conn, lk)
	}
}

// heartbeatLoop streams liveness beats to the coordinator. Beats are
// fire-and-forget — the failure detector tolerates individual losses.
func (nd *Node) heartbeatLoop() {
	defer nd.wg.Done()
	tick := time.NewTicker(nd.tm.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-nd.done:
			return
		case <-tick.C:
			nd.mu.Lock()
			nd.beatSeq++
			seq := nd.beatSeq
			nd.mu.Unlock()
			if lk, err := nd.linkTo(linkCoord); err == nil {
				_ = lk.send(message{
					Type:     msgBeat,
					ID:       idFor(roleBeat, uint64(nd.ID)<<40|seq),
					FromNode: nd.ID,
				}, 0)
			}
		}
	}
}

// readLoop consumes one connection. Incoming assigns and owner updates
// are acknowledged on the same connection; acks resolve pending sends.
func (nd *Node) readLoop(conn net.Conn, lk *link) {
	defer nd.wg.Done()
	dec := json.NewDecoder(conn)
	for {
		var m message
		if err := dec.Decode(&m); err != nil {
			_ = conn.Close()
			return
		}
		switch m.Type {
		case msgAck:
			nd.acks.resolve(m.ID)
		case msgAssign:
			nd.handleAssign(m, lk)
		case msgOwner:
			nd.mu.Lock()
			nd.adopt[m.Dead] = m.Adopter
			att := nd.receipts[m.ID]
			nd.receipts[m.ID]++
			nd.mu.Unlock()
			_ = lk.send(message{Type: msgAck, ID: ackID(m.ID), FromNode: nd.ID}, att)
		}
	}
}

// handleAssign acks and dedups one assignment. A first delivery starts
// the BA recursion; retransmissions only re-ack. A coordinator re-issue
// whose generation advances past the last executed one re-runs the lease
// even on a node that saw it before — an acked hand-off proves delivery,
// not that the receiver's parts survived, so the coordinator must be
// able to force re-execution until the lease's weight is accounted for.
// Re-execution is deterministic, so repeats collapse at every receiver.
func (nd *Node) handleAssign(m message, lk *link) {
	nd.mu.Lock()
	att := nd.receipts[m.ID]
	nd.receipts[m.ID]++
	seenBefore := nd.seen[m.ID] > 0
	execute := !seenBefore || (m.Reissue && nd.seen[m.ID] < m.Gen+1)
	if execute {
		nd.seen[m.ID] = m.Gen + 1
	}
	closed := nd.closed
	nd.mu.Unlock()
	_ = lk.send(message{Type: msgAck, ID: ackID(m.ID), FromNode: nd.ID}, att)
	if !execute {
		nd.reg.Counter(mDedupAssigns).Inc()
	} else if seenBefore {
		nd.reg.Counter(mReissueExecs).Inc()
		nd.reg.Emit("dist.reissue_exec", fmt.Sprintf("node %d re-executes lease %d at gen %d", nd.ID, m.Lease, m.Gen))
	}
	if closed || !execute {
		return
	}
	p, err := Decode(m.Problem)
	if err != nil {
		return // undecodable problems are dropped; the lease expires and is reissued
	}
	leaseID := m.ID
	// Tell the coordinator this lease is now owned here. The claim also
	// discharges the parent lease's weight share.
	claim := message{
		Type: msgClaim, ID: idFor(roleClaim, m.Problem.Seed),
		Lease: leaseID, Parent: m.Parent,
		Problem: m.Problem, Lo: m.Lo, Hi: m.Hi, FromNode: nd.ID,
	}
	// The claim's first attempt goes out before the work starts, so on
	// the coordinator link it always precedes the lease's parts; only its
	// retries run beside the work.
	ps := nd.sendFirst(nil, claim)
	nd.wg.Add(2)
	go func() {
		defer nd.wg.Done()
		_ = nd.awaitAck(ps)
	}()
	lo, hi := m.Lo, m.Hi
	go func() {
		defer nd.wg.Done()
		nd.work(p, lo, hi, leaseID)
	}()
}

// work runs the BA recursion for [lo, hi), handling ownership hand-offs.
// Every part and hand-off stays accounted under leaseID.
func (nd *Node) work(p bisect.Problem, lo, hi int, leaseID uint64) {
	for {
		select {
		case <-nd.done:
			return
		default:
		}
		if hi-lo == 1 || !p.CanBisect() {
			nd.reportPart(p, lo, hi, leaseID)
			return
		}
		c1, c2 := p.Bisect()
		if c1.Weight() < c2.Weight() {
			c1, c2 = c2, c1
		}
		n1, n2 := core.SplitProcs(c1.Weight(), c2.Weight(), hi-lo)
		mid := lo + n1
		// Light child: local recursion if we currently own its range
		// start, otherwise an acknowledged hand-off to the owner.
		if owner := nd.resolveOwner(mid); owner == nd.ID {
			nd.wg.Add(1)
			go func(q bisect.Problem, l, h int) {
				defer nd.wg.Done()
				nd.work(q, l, h, leaseID)
			}(c2, mid, hi)
		} else {
			nd.wg.Add(1)
			go func(q bisect.Problem, l, h int) {
				defer nd.wg.Done()
				nd.sendAssign(q, l, h, leaseID)
			}(c2, mid, hi)
		}
		p, hi = c1, mid
		_ = n2
	}
}

// sendAssign ships a subproblem to the owner of its range start with
// retry and owner re-resolution per attempt: if the owner dies mid-run,
// the coordinator's adoption broadcast reroutes the next attempt.
func (nd *Node) sendAssign(p bisect.Problem, lo, hi int, parentLease uint64) {
	spec, err := Encode(p)
	if err != nil {
		return
	}
	m := message{
		Type: msgAssign, ID: idFor(roleAssign, spec.Seed),
		Lease: idFor(roleAssign, spec.Seed), Parent: parentLease,
		Problem: spec, Lo: lo, Hi: hi, FromNode: nd.ID,
	}
	_ = nd.reliableSend(func() int { return nd.resolveOwner(lo) }, m)
}

// reportPart streams a finished part to the coordinator, retrying until
// acknowledged.
func (nd *Node) reportPart(p bisect.Problem, lo, hi int, leaseID uint64) {
	spec, err := Encode(p)
	if err != nil {
		return
	}
	m := message{
		Type: msgPart, ID: idFor(rolePart, spec.Seed), Lease: leaseID,
		Part: spec, PartLo: lo, PartHi: hi, FromNode: nd.ID,
	}
	_ = nd.reliableSend(nil, m)
}

// reliableSend delivers m at-least-once: send, await ack with a
// per-attempt deadline, back off exponentially with seeded jitter and
// retransmit until acknowledged or the node shuts down. dest re-resolves
// the target node per attempt; nil means the coordinator.
func (nd *Node) reliableSend(dest func() int, m message) error {
	return nd.awaitAck(nd.sendFirst(dest, m))
}

// pendingSend is a reliable send whose first attempt has been made.
type pendingSend struct {
	dest  func() int
	m     message
	ack   chan struct{}
	start time.Time
}

// sendFirst registers m's ack waiter and makes the first attempt on the
// caller's goroutine, which fixes m's place in the link's send order.
func (nd *Node) sendFirst(dest func() int, m message) pendingSend {
	ps := pendingSend{dest: dest, m: m, ack: nd.acks.waiter(ackID(m.ID)), start: time.Now()}
	nd.attempt(ps, 0)
	return ps
}

// attempt makes one send attempt of ps's message to its current target.
func (nd *Node) attempt(ps pendingSend, n uint64) {
	target := linkCoord
	if ps.dest != nil {
		target = ps.dest()
	}
	if lk, err := nd.linkTo(target); err == nil {
		if n > 0 {
			nd.fs.addRetry()
		}
		if err := lk.send(ps.m, n); err != nil {
			nd.dropLink(target)
		}
	}
}

// awaitAck waits for ps's ack, retransmitting after each backoff, until
// acknowledged or the node shuts down. The backoff timer is allocated
// once and Reset per attempt.
func (nd *Node) awaitAck(ps pendingSend) error {
	var n uint64
	t := time.NewTimer(nd.tm.backoff(ps.m.ID, 0))
	defer t.Stop()
	for {
		select {
		case <-ps.ack:
			nd.reg.Histogram(mAckRTT).ObserveSince(ps.start)
			return nil
		case <-nd.done:
			return net.ErrClosed
		case <-t.C:
			nd.reg.Histogram(mBackoff).Observe(int64(nd.tm.backoff(ps.m.ID, n)))
			n++
			t.Reset(nd.tm.backoff(ps.m.ID, n))
			nd.attempt(ps, n)
		}
	}
}

// linkTo returns (dialling if necessary) the link to a peer or the
// coordinator. The reverse direction of the same connection carries acks,
// so every dialled conn gets its own read loop.
func (nd *Node) linkTo(target int) (*link, error) {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, net.ErrClosed
	}
	if lk, ok := nd.links[target]; ok {
		nd.mu.Unlock()
		return lk, nil
	}
	addr := nd.coordAddr
	if target != linkCoord {
		addr = nd.peerAddrs[target]
	}
	nd.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	lk := newLink(conn, nd.fs)
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	if prev, ok := nd.links[target]; ok {
		nd.mu.Unlock()
		_ = conn.Close()
		return prev, nil
	}
	nd.links[target] = lk
	nd.conns = append(nd.conns, conn)
	nd.wg.Add(1)
	nd.mu.Unlock()
	go nd.readLoop(conn, lk)
	return lk, nil
}

// dropLink discards a cached link after a send error so the next attempt
// redials.
func (nd *Node) dropLink(target int) {
	nd.mu.Lock()
	if lk, ok := nd.links[target]; ok {
		delete(nd.links, target)
		_ = lk.conn.Close()
	}
	nd.mu.Unlock()
}

// terminate closes the listener and every connection. Kill (abrupt) does
// not wait for in-flight goroutines; Close (graceful) does.
func (nd *Node) terminate() {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return
	}
	nd.closed = true
	close(nd.done)
	_ = nd.ln.Close()
	for _, c := range nd.conns {
		_ = c.Close()
	}
	nd.links = make(map[int]*link)
	nd.mu.Unlock()
}

// Kill simulates a crash: everything stops immediately, in-flight work is
// abandoned, peers and coordinator see broken connections and silence.
func (nd *Node) Kill() { nd.terminate() }

// Close shuts the node down and waits for in-flight work.
func (nd *Node) Close() {
	nd.terminate()
	nd.wg.Wait()
}
