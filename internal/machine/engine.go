// Package machine simulates the parallel machine model of the paper and
// executes the load-balancing algorithms on it, reporting running time in
// model units, point-to-point message counts and global-communication
// counts.
//
// The cost model (paper, Section 3): bisecting a problem takes one unit of
// time; transmitting a subproblem to a free processor takes one unit of
// time; standard global operations (maximum, prefix computation, sorting or
// selection, barrier) take ⌈log2 N⌉ units, per the PRAM-style assumption
// "which can be simulated on many realistic architectures with at most
// logarithmic slowdown".
//
// There is one simulator, and every run takes a topology.Topology: a send
// costs CostSend per hop and a global operation the topology's
// CollectiveCost. The paper's idealised machine is topology.NewComplete(N).
// HF, BA, BA-HF and PHF's BA′ bootstrap share one BA walker; PHF has one
// phase-one event loop for its oracle and central free-processor managers
// and one phase-two loop. A run given a non-nil *Trace records its
// per-processor schedule as it goes.
package machine

// Model costs in time units.
const (
	// CostBisect is the time to bisect a problem into two subproblems.
	CostBisect int64 = 1
	// CostSend is the time to transmit a subproblem to another processor.
	CostSend int64 = 1
)

// event is a scheduled simulator callback. Events with equal times fire in
// schedule order (seq), which keeps runs deterministic.
type event struct {
	t   int64
	seq int64
	fn  func()
}

// engine is a discrete-event simulation core: a time-ordered event queue.
type engine struct {
	heap []event
	seq  int64
	now  int64
}

// at schedules fn to run at absolute time t. Scheduling in the past (before
// the currently executing event) panics: it would mean the simulated
// algorithm violated causality.
func (e *engine) at(t int64, fn func()) {
	if t < e.now {
		panic("machine: event scheduled in the past")
	}
	e.seq++
	e.heap = append(e.heap, event{t: t, seq: e.seq, fn: fn})
	e.up(len(e.heap) - 1)
}

// run processes events in time order until the queue drains and returns the
// time of the last event.
func (e *engine) run() int64 {
	for len(e.heap) > 0 {
		ev := e.pop()
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

func (e *engine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (e *engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			return
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *engine) pop() event {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	n := len(e.heap)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && e.less(right, left) {
			best = right
		}
		if !e.less(best, i) {
			break
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		i = best
	}
	return top
}
