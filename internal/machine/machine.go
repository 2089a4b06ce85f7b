package machine

import (
	"errors"
	"fmt"
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
	"bisectlb/internal/topology"
)

// Phase1Mode selects how Algorithm PHF manages free processors during its
// first phase (paper, Section 3.4).
type Phase1Mode int

const (
	// Phase1Oracle assumes a processor "can quickly (in constant time)
	// acquire the number of a free processor" — the idealised assumption
	// of Section 3. No management traffic is charged.
	Phase1Oracle Phase1Mode = iota
	// Phase1Central routes every free-processor request through processor
	// P1, which serves one request per time unit. This is the naive
	// realisation whose contention the paper warns about ("it must be
	// expected that substantial communication overhead will occur").
	Phase1Central
	// Phase1BAPrime bootstraps phase one with Algorithm BA′ and its
	// zero-overhead range-based management, followed by a constant number
	// of synchronous sweep iterations — the paper's proposed solution.
	Phase1BAPrime
)

// String names the mode for reports.
func (m Phase1Mode) String() string {
	switch m {
	case Phase1Oracle:
		return "oracle"
	case Phase1Central:
		return "central"
	case Phase1BAPrime:
		return "ba-prime"
	default:
		return fmt.Sprintf("Phase1Mode(%d)", int(m))
	}
}

// Metrics reports one simulated run.
type Metrics struct {
	Algorithm string
	N         int
	// Makespan is the completion time of the load balancing in model units.
	Makespan int64
	// Messages counts subproblem transmissions between processors.
	Messages int64
	// ManagerMessages counts free-processor-management traffic (requests
	// and replies); zero under range-based management.
	ManagerMessages int64
	// GlobalOps counts global communication operations; GlobalTime is the
	// model time they consumed (the topology's CollectiveCost each).
	GlobalOps  int64
	GlobalTime int64
	// Bisections counts bisection steps.
	Bisections int64
	// Phase accounting (PHF only; zero otherwise).
	Phase1Time       int64
	Phase2Time       int64
	Phase1Rounds     int
	Phase2Iterations int
	// Parts and Ratio describe the computed partition.
	Parts int
	Ratio float64
}

// RunHF simulates the sequential Algorithm HF: processor P1 performs all
// N−1 bisections back to back and then transmits the N−1 further parts,
// one after another. Makespan is therefore Θ(N) — the baseline the
// parallel algorithms improve to O(log N).
func RunHF(p bisect.Problem, topo topology.Topology, tr *Trace) (*Metrics, error) {
	return runBA(p, topo, tr, "HF", math.Inf(1), nil)
}

// RunBA simulates Algorithm BA: after each bisection (one unit) the heavy
// child continues on the same processor while the light child is sent to
// the first processor of its range — the range-based management of
// Section 3.4, which needs no management traffic and no global operation.
// Transmission is asynchronous: the processor starts its next bisection
// while the send is in flight, so a part completes at its depth in
// bisections plus the sends on its path. Makespan is the latest part.
func RunBA(p bisect.Problem, topo topology.Topology, tr *Trace) (*Metrics, error) {
	return runBA(p, topo, tr, "BA", 0, nil)
}

// RunBAHF simulates Algorithm BA-HF with the sequential HF as its second
// stage: the BA part behaves as in RunBA; once a subproblem's processor
// count drops below κ/α + 1, its processor performs the remaining
// bisections sequentially and distributes the results within its range.
func RunBAHF(p bisect.Problem, topo topology.Topology, alpha, kappa float64, tr *Trace) (*Metrics, error) {
	invalid := errors.Join(bounds.ValidateAlpha(alpha), bounds.ValidateKappa(kappa))
	return runBA(p, topo, tr, "BA-HF", kappa/alpha+1, invalid)
}

// runBA runs the BA walker from the root over the whole machine, handing
// ranges of fewer than cutoff processors to sequential HF.
func runBA(p bisect.Problem, topo topology.Topology, tr *Trace, name string, cutoff float64, invalid error) (*Metrics, error) {
	s, err := newSim(p, topo, tr, name, invalid)
	if err != nil {
		return nil, err
	}
	s.cutoff = cutoff
	s.ba(p, 0, s.m.N, 0)
	return s.finish(p), nil
}

// held is a part and the processor that holds it.
type held struct {
	q    bisect.Problem
	proc int
}

// sim is one run on the machine: the topology prices every send and
// collective, and every step is recorded into tr when it is non-nil.
type sim struct {
	topo  topology.Topology
	m     *Metrics
	tr    *Trace
	parts []held
	// busy marks the processors holding a subproblem; next is the lowest
	// one that may still be free.
	busy []bool
	next int
	// end is the latest time a part was completed; now is the clock of
	// PHF's synchronous steps.
	end, now int64
	// cutoff hands ranges of fewer processors to sequential HF (BA-HF).
	cutoff float64
	// floor ends the walk at subproblems of at most this weight (BA′).
	floor float64
}

// newSim validates a run's inputs, invalid being the algorithm's own
// parameter check, and starts the run with processor 0 holding the root.
func newSim(p bisect.Problem, topo topology.Topology, tr *Trace, name string, invalid error) (*sim, error) {
	if err := bisect.ValidateRoot(p); err != nil {
		return nil, err
	}
	if topo == nil {
		return nil, fmt.Errorf("machine: nil topology")
	}
	n := topo.N()
	if n < 1 {
		return nil, fmt.Errorf("machine: processor count must be ≥ 1, got %d", n)
	}
	if invalid != nil {
		return nil, invalid
	}
	if tr != nil {
		*tr = Trace{N: n}
	}
	s := &sim{topo: topo, m: &Metrics{Algorithm: name, N: n}, tr: tr, busy: make([]bool, n), floor: math.Inf(-1)}
	s.busy[0] = true
	return s, nil
}

// ba walks Algorithm BA from q, which the processor range
// [base, base+procs) holds from time t: the heavy child stays on base,
// the light child travels to base+n1. The walk stops at one processor,
// an indivisible subproblem or, for BA′, a weight at or below floor.
func (s *sim) ba(q bisect.Problem, base, procs int, t int64) {
	if procs == 1 || q.Weight() <= s.floor || !q.CanBisect() {
		s.leaf(q, base, t)
		return
	}
	if float64(procs) < s.cutoff {
		s.hf(q, base, procs, t)
		return
	}
	c1, c2 := s.split(q, base, t)
	if c1.Weight() < c2.Weight() {
		c1, c2 = c2, c1
	}
	n1, n2 := core.SplitProcs(c1.Weight(), c2.Weight(), procs)
	t += CostBisect
	arrival := s.send(base, base+n1, t, c2.Weight())
	s.ba(c1, base, n1, t)
	s.ba(c2, base+n1, n2, arrival)
}

// hf runs sequential HF on q over [base, base+procs) from time t: base
// performs every bisection back to back, then sends the further parts to
// the next processors of the range, one after another.
func (s *sim) hf(q bisect.Problem, base, procs int, t int64) {
	res, err := core.HF(q, procs, core.Options{})
	if err != nil {
		// The root was validated; a failure here means a broken Problem
		// implementation mid-tree.
		panic(err)
	}
	b := int64(res.Bisections)
	s.m.Bisections += b
	s.event(base, t, b*CostBisect, ActBisect, q.Weight())
	t += b * CostBisect
	for j, pt := range res.Parts {
		if j > 0 {
			t = s.send(base, base+j, t, pt.Problem.Weight())
		}
		s.leaf(pt.Problem, base+j, t)
	}
}

// leaf completes part q on proc at time t.
func (s *sim) leaf(q bisect.Problem, proc int, t int64) {
	s.parts = append(s.parts, held{q, proc})
	s.busy[proc] = true
	s.end = max(s.end, t)
}

// split bisects q on proc, starting at t.
func (s *sim) split(q bisect.Problem, proc int, t int64) (bisect.Problem, bisect.Problem) {
	c1, c2 := q.Bisect()
	s.m.Bisections++
	s.event(proc, t, CostBisect, ActBisect, q.Weight())
	return c1, c2
}

// send transmits a subproblem of weight w from one processor to another,
// starting at t, and returns its arrival time: CostSend per hop, and at
// least one unit even to the sender itself.
func (s *sim) send(from, to int, t int64, w float64) int64 {
	s.m.Messages++
	arrival := t + CostSend*max(1, s.topo.Distance(from, to))
	s.event(from, t, arrival-t, ActSend, w)
	s.event(to, arrival, 0, ActRecv, w)
	return arrival
}

// acquire hands out the lowest-numbered free processor, so PHF numbers
// processors in acquisition order. With none left — a mis-declared α can
// make PHF's phase one overshoot N parts — the subproblem stays on from.
func (s *sim) acquire(from int) int {
	for s.next < len(s.busy) && s.busy[s.next] {
		s.next++
	}
	if s.next == len(s.busy) {
		return from
	}
	s.busy[s.next] = true
	return s.next
}

// collective charges one global operation, in which every processor
// takes part.
func (s *sim) collective() {
	c := s.topo.CollectiveCost()
	s.m.GlobalOps++
	s.m.GlobalTime += c
	for proc := 0; proc < s.m.N; proc++ {
		s.event(proc, s.now, c, ActCollective, 0)
	}
	s.now += c
}

// event records an interval on proc into the trace, if the run has one.
func (s *sim) event(proc int, start, d int64, a Action, w float64) {
	if s.tr != nil {
		s.tr.Events = append(s.tr.Events, TraceEvent{Proc: proc, Start: start, Duration: d, Action: a, Weight: w})
	}
}

// finish fills the run's makespan and partition metrics.
func (s *sim) finish(p bisect.Problem) *Metrics {
	m := s.m
	m.Makespan = max(s.end, s.now)
	m.Parts = len(s.parts)
	var maxW float64
	for _, h := range s.parts {
		maxW = max(maxW, h.q.Weight())
	}
	m.Ratio = bisect.Ratio(maxW, p.Weight(), m.N)
	if s.tr != nil {
		s.tr.Makespan = m.Makespan
	}
	return m
}
