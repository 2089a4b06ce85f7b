// Package netcoll implements the global communication operations of the
// paper's machine model — barrier, all-reduce, exclusive prefix sum,
// broadcast — over real TCP connections between cluster members arranged
// in a binary reduction tree. It is the substrate for the distributed
// PHF in internal/dist: PHF's phases need exactly these primitives,
// which is why the paper charges it Θ(log N) global-communication time
// that Algorithm BA avoids entirely.
//
// All collectives are synchronous and must be invoked by every member in
// the same order; each carries a sequence number so late or duplicated
// frames are detected rather than silently misapplied.
//
// The tree tolerates lossy links: a member waiting for its parent's
// down-frame retransmits its up-contribution on a sub-timeout, parents
// cache the down-frames of completed collectives and replay them when a
// duplicate up-frame reveals the child never got the result, and
// receivers dedup on (seq, dir, from). Faults are injected through the
// pluggable FaultInjector hook (dist.FaultPlan implements it), and a
// collective that cannot complete fails with an error wrapping
// ErrTimeout. After a member death the survivors call Rebuild with the
// common survivor set; ranks are remapped over the live members and the
// sequence space jumps to a fresh epoch so frames from the old topology
// can never alias the new one.
package netcoll

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"bisectlb/internal/obs"
	"bisectlb/internal/xrand"
)

// Metric names recorded in a member's obs.Registry (see Metrics).
const (
	mFramesSent   = "netcoll.frames_sent"
	mFramesDrop   = "netcoll.frames_dropped" // swallowed by the fault plan
	mFramesDup    = "netcoll.frames_duped"
	mFramesDelay  = "netcoll.frames_delayed"
	mRetransmits  = "netcoll.retransmits"   // up-contribution re-sends on sub-timeout
	mReplays      = "netcoll.replays"       // down-frame replays to children
	mStaleDrops   = "netcoll.stale_drops"   // frames of finished collectives discarded
	mInboxDrops   = "netcoll.inbox_drops"   // protocol-violation drops on a full inbox
	mInvalidDrops = "netcoll.invalid_drops" // malformed frames rejected by checkFrame
	mPendingDrops = "netcoll.pending_drops" // stash-overflow drops (protocol violation)
	mTimeouts     = "netcoll.timeouts"      // collectives that hit ErrTimeout
	mRebuilds     = "netcoll.rebuilds"      // tree rebuilds after member deaths
	mDials        = "netcoll.dials"
	mCollectives  = "netcoll.collectives"
	mCollectiveNs = "netcoll.collective_ns" // per-collective latency histogram
)

// ErrTimeout marks a collective that did not complete within the
// member's deadline — typically because a peer died and Rebuild has not
// been called yet. Test with errors.Is.
var ErrTimeout = errors.New("netcoll: collective timed out")

// FaultInjector decides the fate of individual frame transmissions.
// Implementations must be pure functions of (msgID, attempt) so a chaos
// run is reproducible; *dist.FaultPlan satisfies the interface.
type FaultInjector interface {
	Decide(msgID, attempt uint64) (drop, dup bool, delay time.Duration)
}

// frame is the wire message. Dir is "up" (child → parent contribution) or
// "down" (parent → child result).
type frame struct {
	Seq  uint64  `json:"seq"`
	Dir  string  `json:"dir"`
	From int     `json:"from"`
	F    float64 `json:"f"`
	I    int64   `json:"i"`
	// Pre carries per-subtree prefix bases during the down-sweep of
	// prefix sums.
	Pre int64 `json:"pre"`
	// Vec carries element-wise-summed vectors (AllReduceSumVecInt64).
	Vec []int64 `json:"vec,omitempty"`
}

const (
	dirUp   = "up"
	dirDown = "down"
)

// downCacheSeqs bounds how many completed collectives keep their
// down-frames around for replay.
const downCacheSeqs = 8

// maxPending bounds the recv stash of current-or-future frames. The
// protocol allows one outstanding collective, so legitimate diversions
// are a handful per peer; an unbounded stash would let a misbehaving or
// desynchronised peer grow memory without limit (found while preparing
// the frame-decode fuzz target). Overflow drops the newest frame — the
// sender's retransmission path recovers it if it was real.
const maxPending = 256

// maxVecLen bounds the vector payload a member accepts in one frame.
// Legitimate vectors carry one slot per cluster member; anything larger
// is a protocol violation and, unchecked, a memory-amplification vector.
const maxVecLen = 1 << 16

// checkFrame validates a decoded wire frame against the cluster size k:
// a known direction, a sender id inside the cluster, and a sanely sized
// vector payload. readConn drops frames that fail it — a malformed frame
// previously flowed unchecked into the inbox and pending stash, where an
// out-of-range From could sit forever matching no recv and an oversized
// Vec pinned arbitrary memory.
func checkFrame(f frame, k int) error {
	if f.Dir != dirUp && f.Dir != dirDown {
		return fmt.Errorf("netcoll: frame with unknown direction %q", f.Dir)
	}
	if f.From < 0 || f.From >= k {
		return fmt.Errorf("netcoll: frame from %d outside [0, %d)", f.From, k)
	}
	if len(f.Vec) > maxVecLen {
		return fmt.Errorf("netcoll: frame vector of %d elements exceeds limit %d", len(f.Vec), maxVecLen)
	}
	return nil
}

// frameID derives the fault-decision identity of a frame transmission.
// The destination is mixed in because prefix-sum down-frames differ per
// child; the direction keeps an up/down pair from sharing a fate.
func frameID(f frame, to int) uint64 {
	d := uint64(1)
	if f.Dir == dirUp {
		d = 2
	}
	return xrand.Mix(f.Seq, uint64(f.From)<<20|uint64(to)<<4|d)
}

// Member is one participant, id 0 … K−1. Initially the reduction tree is
// a binary tree over ids rooted at 0 (children of rank i are 2i+1 and
// 2i+2); after Rebuild the same shape is laid over the sorted survivor
// ranks. Collectives and Rebuild must be called from a single goroutine.
type Member struct {
	id, k int
	ln    net.Listener
	addrs []string

	mu       sync.Mutex
	conns    []net.Conn
	encoders map[int]*json.Encoder
	// downCache holds the down-frames of recently completed collectives,
	// seq → destination id → frame, for replay to children that lost the
	// result. cacheSeqs is its FIFO eviction order.
	downCache map[uint64]map[int]frame
	cacheSeqs []uint64
	replayN   uint64

	inbox   chan frame
	seq     uint64
	timeout time.Duration
	retry   time.Duration
	fault   FaultInjector
	reg     *obs.Registry

	// dial opens the transport connection to a peer; a test hook so the
	// no-head-of-line-blocking property of sendFrame is verifiable with
	// a deterministically slow peer.
	dial func(addr string) (net.Conn, error)

	// pending holds frames of the current or a future collective that a
	// recv call pulled from the inbox but did not want. It is scanned
	// before the inbox, so a diverted frame of a well-behaved peer is
	// never lost — unlike the bounded-channel re-queue it replaces,
	// which silently dropped frames when the inbox was full. The stash
	// is capped at maxPending so a desynchronised peer cannot grow it
	// without limit. Guarded by the same single-goroutine collective
	// contract as seq.
	pending []frame

	// live maps rank → member id; rank is this member's own position.
	live []int
	rank int

	wg     sync.WaitGroup
	closed bool
}

// NewMember creates a member listening on addr. Call Start with the full
// address list once the cluster is assembled.
func NewMember(id, k int, addr string) (*Member, error) {
	if k < 1 || id < 0 || id >= k {
		return nil, fmt.Errorf("netcoll: member id %d outside [0, %d)", id, k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcoll: member %d listen: %w", id, err)
	}
	live := make([]int, k)
	for i := range live {
		live[i] = i
	}
	return &Member{
		id: id, k: k, ln: ln,
		encoders:  make(map[int]*json.Encoder),
		downCache: make(map[uint64]map[int]frame),
		inbox:     make(chan frame, 64),
		timeout:   30 * time.Second,
		retry:     250 * time.Millisecond,
		reg:       obs.NewRegistry(),
		dial:      func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		live:      live,
		rank:      id,
	}, nil
}

// Addr returns the member's listen address.
func (m *Member) Addr() string { return m.ln.Addr().String() }

// Metrics returns the member's metric registry: frame/retransmit/replay
// counters and the per-collective latency histogram.
func (m *Member) Metrics() *obs.Registry { return m.reg }

// SetTimeout adjusts the per-collective deadline (default 30s).
func (m *Member) SetTimeout(d time.Duration) { m.timeout = d }

// SetRetry adjusts the retransmission sub-timeout (default 250ms): how
// long a member waits for its parent's down-frame before re-sending its
// up-contribution.
func (m *Member) SetRetry(d time.Duration) { m.retry = d }

// SetFault installs a fault injector on the member's outbound frames.
// Call before the first collective.
func (m *Member) SetFault(fi FaultInjector) { m.fault = fi }

// Start begins serving; addrs[i] must be member i's address.
func (m *Member) Start(addrs []string) error {
	if len(addrs) != m.k {
		return fmt.Errorf("netcoll: %d addresses for %d members", len(addrs), m.k)
	}
	m.addrs = append([]string(nil), addrs...)
	m.wg.Add(1)
	go m.acceptLoop()
	return nil
}

func (m *Member) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		m.conns = append(m.conns, conn)
		m.mu.Unlock()
		m.wg.Add(1)
		go m.readConn(conn)
	}
}

func (m *Member) readConn(conn net.Conn) {
	defer m.wg.Done()
	dec := json.NewDecoder(conn)
	for {
		var f frame
		if err := dec.Decode(&f); err != nil {
			if !errors.Is(err, io.EOF) {
				_ = conn.Close()
			}
			return
		}
		if err := checkFrame(f, m.k); err != nil {
			m.reg.Counter(mInvalidDrops).Inc()
			continue
		}
		// An up-frame for a collective this member already finished means
		// the child lost our down-frame; replay it from the cache instead
		// of enqueueing a stale contribution. Replays happen here, in the
		// reader, so they work even while the member sits idle between
		// collectives.
		if f.Dir == dirUp {
			m.mu.Lock()
			cached, ok := m.downCache[f.Seq][f.From]
			var attempt uint64
			if ok {
				m.replayN++
				attempt = m.replayN
			}
			m.mu.Unlock()
			if ok {
				m.reg.Counter(mReplays).Inc()
				_ = m.sendFrame(f.From, cached, attempt)
				continue
			}
		}
		select {
		case m.inbox <- f:
		default:
			// A full inbox means the protocol is violated (more than one
			// outstanding collective); drop the frame and let the peer
			// time out loudly.
			m.reg.Counter(mInboxDrops).Inc()
		}
	}
}

// parentID and childIDs express the binary tree in rank space and map the
// ranks back to member ids.
func (m *Member) parentID() int { return m.live[(m.rank-1)/2] }

func (m *Member) childIDs() []int {
	var out []int
	for _, c := range []int{2*m.rank + 1, 2*m.rank + 2} {
		if c < len(m.live) {
			out = append(out, m.live[c])
		}
	}
	return out
}

// Rebuild shrinks the reduction tree to the given survivor set. Every
// survivor must call it with the same set before the next collective;
// the member's own id must be included. The sequence counter jumps to a
// fresh epoch so frames of the old topology can never match a collective
// of the new one.
func (m *Member) Rebuild(survivors []int) error {
	live := append([]int(nil), survivors...)
	sort.Ints(live)
	rank := -1
	for i, id := range live {
		if id == m.id {
			rank = i
		}
		if id < 0 || id >= m.k {
			return fmt.Errorf("netcoll: survivor %d outside [0, %d)", id, m.k)
		}
		if i > 0 && live[i-1] == id {
			return fmt.Errorf("netcoll: duplicate survivor %d", id)
		}
	}
	if rank < 0 {
		return fmt.Errorf("netcoll: member %d not in survivor set %v", m.id, live)
	}
	m.live = live
	m.rank = rank
	m.seq = ((m.seq >> 20) + 1) << 20
	m.reg.Counter(mRebuilds).Inc()
	m.reg.Emit("netcoll.rebuild", fmt.Sprintf("member %d: %d survivors, rank %d", m.id, len(live), rank))
	return nil
}

// sendFrame transmits one frame through the fault layer. A dropped frame
// returns nil — the loss is indistinguishable from the network eating it.
func (m *Member) sendFrame(to int, f frame, attempt uint64) error {
	var dup bool
	var delay time.Duration
	if m.fault != nil {
		var drop bool
		drop, dup, delay = m.fault.Decide(frameID(f, to), attempt)
		if drop {
			m.reg.Counter(mFramesDrop).Inc()
			return nil
		}
	}
	if delay > 0 {
		m.reg.Counter(mFramesDelay).Inc()
		time.Sleep(delay)
	}
	enc, err := m.encoderFor(to)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return net.ErrClosed
	}
	m.reg.Counter(mFramesSent).Inc()
	if err := enc.Encode(f); err != nil {
		return err
	}
	if dup {
		m.reg.Counter(mFramesDup).Inc()
		return enc.Encode(f)
	}
	return nil
}

// encoderFor returns the cached encoder for a peer, dialling it first
// if necessary. The dial happens OUTSIDE the member lock so one slow or
// unreachable peer cannot head-of-line-block every other send from this
// member; when two goroutines race to dial the same peer, the loser
// closes its connection and adopts the winner's encoder.
func (m *Member) encoderFor(to int) (*json.Encoder, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, net.ErrClosed
	}
	if enc, ok := m.encoders[to]; ok {
		m.mu.Unlock()
		return enc, nil
	}
	addr := m.addrs[to]
	m.mu.Unlock()

	m.reg.Counter(mDials).Inc()
	conn, err := m.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("netcoll: member %d dialing %d: %w", m.id, to, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	if enc, ok := m.encoders[to]; ok {
		_ = conn.Close()
		return enc, nil
	}
	m.conns = append(m.conns, conn)
	enc := json.NewEncoder(conn)
	m.encoders[to] = enc
	return enc, nil
}

// sendDown caches a down-frame for replay, then transmits it.
func (m *Member) sendDown(to int, f frame) error {
	m.mu.Lock()
	cache, ok := m.downCache[f.Seq]
	if !ok {
		cache = make(map[int]frame)
		m.downCache[f.Seq] = cache
		m.cacheSeqs = append(m.cacheSeqs, f.Seq)
		for len(m.cacheSeqs) > downCacheSeqs {
			delete(m.downCache, m.cacheSeqs[0])
			m.cacheSeqs = m.cacheSeqs[1:]
		}
	}
	cache[to] = f
	m.mu.Unlock()
	return m.sendFrame(to, f, 0)
}

// recv waits for a frame matching seq, direction and sender. Frames from
// earlier collectives are discarded; frames of the current (or a future)
// collective that this call did not want are stashed in m.pending, which
// is scanned before the inbox on every call — unlike the old bounded
// channel re-queue, a diverted frame within the protocol's frame budget
// is never lost (the stash caps at maxPending against desynchronised
// peers). If resend is non-nil it is invoked on every retransmission
// sub-timeout with an increasing attempt number — the caller's way of
// nudging a parent whose frame (or whose view of ours) was lost.
func (m *Member) recv(seq uint64, dir string, from int, resend func(attempt uint64) error) (frame, error) {
	// A previous recv may already have pulled the wanted frame out of
	// the inbox; stale entries are pruned on the way through.
	kept := m.pending[:0]
	var match frame
	found := false
	for i := range m.pending {
		f := m.pending[i]
		switch {
		case !found && f.Seq == seq && f.Dir == dir && f.From == from:
			match, found = f, true
		case f.Seq >= seq:
			kept = append(kept, f)
		default:
			m.reg.Counter(mStaleDrops).Inc()
		}
	}
	m.pending = kept
	if found {
		return match, nil
	}

	// One timer per role, reused across iterations: the per-iteration
	// time.After this replaces leaked a timer per loop turn, which
	// accumulates under chaos-level retransmit counts.
	overall := time.NewTimer(m.timeout)
	defer overall.Stop()
	var sub *time.Timer
	var subC <-chan time.Time
	if resend != nil {
		sub = time.NewTimer(m.retry)
		defer sub.Stop()
		subC = sub.C
	}
	resetSub := func(drain bool) {
		if sub == nil {
			return
		}
		if drain && !sub.Stop() {
			select {
			case <-sub.C:
			default:
			}
		}
		sub.Reset(m.retry)
	}
	attempt := uint64(0)
	for {
		select {
		case f := <-m.inbox:
			if f.Seq == seq && f.Dir == dir && f.From == from {
				return f, nil
			}
			if f.Seq >= seq {
				if len(m.pending) < maxPending {
					m.pending = append(m.pending, f)
				} else {
					// A stash this deep means a desynchronised or hostile
					// peer; drop the frame and let retransmission recover
					// it if it was real.
					m.reg.Counter(mPendingDrops).Inc()
				}
			} else {
				// Frames with older sequence numbers are stale retransmits
				// or duplicates of finished collectives: drop them.
				m.reg.Counter(mStaleDrops).Inc()
			}
			// Any received frame is progress; restart the retransmission
			// clock as the per-iteration timer construction used to.
			resetSub(true)
		case <-subC:
			attempt++
			m.reg.Counter(mRetransmits).Inc()
			if err := resend(attempt); err != nil {
				return frame{}, err
			}
			resetSub(false)
		case <-overall.C:
			m.reg.Counter(mTimeouts).Inc()
			return frame{}, fmt.Errorf("netcoll: member %d waiting for %s/%d seq %d: %w",
				m.id, dir, from, seq, ErrTimeout)
		}
	}
}

// reduce runs one up-sweep/down-sweep episode. combine folds child
// contributions into the local value; the root's final value is broadcast
// back down and returned by every member.
func (m *Member) reduce(local frame, combine func(acc, child frame) frame) (frame, error) {
	m.reg.Counter(mCollectives).Inc()
	start := time.Now()
	defer func() { m.reg.Histogram(mCollectiveNs).ObserveSince(start) }()
	m.seq++
	seq := m.seq
	local.Seq = seq
	acc := local
	for _, c := range m.childIDs() {
		f, err := m.recv(seq, dirUp, c, nil)
		if err != nil {
			return frame{}, err
		}
		acc = combine(acc, f)
	}
	if m.rank != 0 {
		acc.Dir = dirUp
		acc.From = m.id
		parent := m.parentID()
		if err := m.sendFrame(parent, acc, 0); err != nil {
			return frame{}, err
		}
		res, err := m.recv(seq, dirDown, parent, func(attempt uint64) error {
			return m.sendFrame(parent, acc, attempt)
		})
		if err != nil {
			return frame{}, err
		}
		acc = res
	}
	acc.Dir = dirDown
	for _, c := range m.childIDs() {
		out := acc
		out.From = m.id
		if err := m.sendDown(c, out); err != nil {
			return frame{}, err
		}
	}
	return acc, nil
}

// Barrier blocks until every member has entered it.
func (m *Member) Barrier() error {
	_, err := m.reduce(frame{}, func(acc, _ frame) frame { return acc })
	return err
}

// AllReduceMaxFloat64 returns the maximum of all contributions.
func (m *Member) AllReduceMaxFloat64(v float64) (float64, error) {
	res, err := m.reduce(frame{F: v}, func(acc, child frame) frame {
		if child.F > acc.F {
			acc.F = child.F
		}
		return acc
	})
	return res.F, err
}

// AllReduceSumInt64 returns the sum of all contributions.
func (m *Member) AllReduceSumInt64(v int64) (int64, error) {
	res, err := m.reduce(frame{I: v}, func(acc, child frame) frame {
		acc.I += child.I
		return acc
	})
	return res.I, err
}

// AllReduceSumVecInt64 sums equal-length vectors element-wise across all
// members. With each member contributing its value at its own index, the
// call doubles as an all-gather — the pattern the distributed PHF uses to
// learn every node's free-processor count.
func (m *Member) AllReduceSumVecInt64(v []int64) ([]int64, error) {
	res, err := m.reduce(frame{Vec: append([]int64(nil), v...)}, func(acc, child frame) frame {
		if len(child.Vec) != len(acc.Vec) {
			// Length mismatch indicates a protocol violation; poison the
			// result visibly rather than panicking inside the reduction.
			acc.Vec = nil
			return acc
		}
		for i := range acc.Vec {
			acc.Vec[i] += child.Vec[i]
		}
		return acc
	})
	if err != nil {
		return nil, err
	}
	if res.Vec == nil {
		return nil, fmt.Errorf("netcoll: member %d vector length mismatch in all-reduce", m.id)
	}
	return res.Vec, nil
}

// BroadcastFloat64 distributes the root member's value.
func (m *Member) BroadcastFloat64(v float64) (float64, error) {
	res, err := m.reduce(frame{F: v}, func(acc, _ frame) frame { return acc })
	if err != nil {
		return 0, err
	}
	return res.F, nil
}

// PrefixSumInt64 returns an exclusive prefix sum and the total. The prefix
// order is the reduction tree's preorder (rank 0 first, then the left
// subtree, then the right), which is fixed and identical for every member
// and every call — exactly what unique-slot assignment (PHF's
// free-processor numbering) needs; callers must not assume ascending
// member-id order. The up-sweep accumulates subtree sums; the down-sweep
// hands each subtree its base offset.
func (m *Member) PrefixSumInt64(v int64) (before, total int64, err error) {
	m.reg.Counter(mCollectives).Inc()
	start := time.Now()
	defer func() { m.reg.Histogram(mCollectiveNs).ObserveSince(start) }()
	m.seq++
	seq := m.seq

	// Up-sweep: collect child subtree sums (order matters: left, right).
	children := m.childIDs()
	childSums := make([]int64, len(children))
	sub := v
	for i, c := range children {
		f, e := m.recv(seq, dirUp, c, nil)
		if e != nil {
			return 0, 0, e
		}
		childSums[i] = f.I
		sub += f.I
	}
	var base int64
	if m.rank != 0 {
		up := frame{Seq: seq, Dir: dirUp, From: m.id, I: sub}
		parent := m.parentID()
		if e := m.sendFrame(parent, up, 0); e != nil {
			return 0, 0, e
		}
		f, e := m.recv(seq, dirDown, parent, func(attempt uint64) error {
			return m.sendFrame(parent, up, attempt)
		})
		if e != nil {
			return 0, 0, e
		}
		base = f.Pre
		total = f.I
	} else {
		total = sub
	}
	// In-order convention: the member's own value precedes its subtrees'.
	// Left child's base is base+v; right child's is base+v+leftSum.
	run := base + v
	for i, c := range children {
		if e := m.sendDown(c, frame{Seq: seq, Dir: dirDown, From: m.id, Pre: run, I: total}); e != nil {
			return 0, 0, e
		}
		run += childSums[i]
	}
	return base, total, nil
}

// Close shuts the member down.
func (m *Member) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	_ = m.ln.Close()
	for _, c := range m.conns {
		_ = c.Close()
	}
	m.mu.Unlock()
	m.wg.Wait()
}
