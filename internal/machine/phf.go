package machine

import (
	"cmp"
	"fmt"
	"slices"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/topology"
)

// RunPHF simulates Algorithm PHF with the selected phase-one
// free-processor management. All modes perform exactly the same
// bisections and deliver HF's partition (Theorem 3); they differ in
// timing and management traffic:
//
//   - Phase1Oracle charges nothing for acquiring free processors (the
//     idealised assumption under which Theorem 3's O(log N) holds).
//   - Phase1Central serialises acquisitions through P1 and exposes the
//     contention the paper warns about.
//   - Phase1BAPrime uses Algorithm BA′ with range-based management plus a
//     constant number of synchronous sweep rounds (Section 3.4), the
//     paper's remedy.
//
// Every global operation costs the topology's CollectiveCost, so on
// meshes and rings PHF's collective-heavy structure pays Θ(√N) or Θ(N)
// per phase-two iteration — the machine-characteristics caveat of the
// paper's conclusion.
func RunPHF(p bisect.Problem, topo topology.Topology, alpha float64, mode Phase1Mode, tr *Trace) (*Metrics, error) {
	invalid := bounds.ValidateAlpha(alpha)
	if invalid == nil && mode != Phase1Oracle && mode != Phase1Central && mode != Phase1BAPrime {
		invalid = fmt.Errorf("machine: unknown phase-1 mode %v", mode)
	}
	s, err := newSim(p, topo, tr, "PHF/"+mode.String(), invalid)
	if err != nil {
		return nil, err
	}
	n := s.m.N
	threshold := bounds.HFThreshold(p.Weight(), alpha, n)
	if mode == Phase1BAPrime {
		s.baPrime(p, threshold)
	} else {
		s.phase1(p, threshold, mode == Phase1Central)
	}
	// Barrier (step (b)) and free-processor numbering (step (c)).
	s.collective()
	s.collective()
	s.m.Phase1Time = s.now

	// Phase two: iterate until no processor remains free.
	for f := n - len(s.parts); f > 0; {
		var maxW float64
		for _, h := range s.parts {
			maxW = max(maxW, h.q.Weight())
		}
		cut := maxW * (1 - alpha)
		heavy := s.heavy(func(w float64) bool { return w >= cut })
		s.collective() // step (d): maximum weight
		s.collective() // step (e): processors at or above the cut
		if len(heavy) == 0 {
			break
		}
		if len(heavy) > f {
			// Step (3b): parallel selection of the f heaviest subproblems.
			slices.SortFunc(heavy, func(a, b int) int {
				qa, qb := s.parts[a].q, s.parts[b].q
				return cmp.Or(cmp.Compare(qb.Weight(), qa.Weight()), cmp.Compare(qa.ID(), qb.ID()))
			})
			heavy = heavy[:f]
			s.collective()
		}
		s.round(heavy)
		f -= len(heavy)
		s.m.Phase2Iterations++
		if f > 0 {
			s.collective() // step (h): barrier
		}
	}
	s.m.Phase2Time = s.now - s.m.Phase1Time
	return s.finish(p), nil
}

// phase1 runs PHF's first phase as an event simulation: a processor
// bisects its subproblem while it weighs more than threshold, keeps the
// first child and sends the second to a free processor as soon as one is
// acquired. Under central management P1 serves one request per time
// unit, first come first served; a request and its reply take one send
// each, so an uncontended acquisition costs 3 units.
func (s *sim) phase1(p bisect.Problem, threshold float64, central bool) {
	var eng engine
	var freeAt int64 // when P1 can serve the next request
	var handle func(q bisect.Problem, proc, depth int, t int64)
	handle = func(q bisect.Problem, proc, depth int, t int64) {
		if q.Weight() <= threshold || !q.CanBisect() {
			s.leaf(q, proc, t)
			s.m.Phase1Rounds = max(s.m.Phase1Rounds, depth)
			return
		}
		eng.at(t+CostBisect, func() {
			tb := t + CostBisect
			c1, c2 := s.split(q, proc, t)
			handle(c1, proc, depth+1, tb)
			ready := tb
			if central {
				s.m.ManagerMessages += 2
				freeAt = max(tb+CostSend, freeAt) + 1
				ready = freeAt + CostSend
			}
			dest := s.acquire(proc)
			arrival := s.send(proc, dest, ready, c2.Weight())
			eng.at(arrival, func() { handle(c2, dest, depth+1, arrival) })
		})
	}
	handle(p, 0, 0, 0)
	eng.run()
	s.now = s.end
}

// baPrime runs PHF's phase one as Algorithm BA′ — BA that also stops at
// subproblems of weight at most threshold, with no manager traffic —
// followed by synchronous sweeps bisecting everything still above the
// threshold: a constant number for fixed α, since each sweep shrinks the
// maximum remaining weight by (1−α).
func (s *sim) baPrime(p bisect.Problem, threshold float64) {
	s.floor = threshold
	s.ba(p, 0, s.m.N, 0)
	s.now = s.end
	s.collective() // free processors are determined and numbered once
	for {
		heavy := s.heavy(func(w float64) bool { return w > threshold })
		if len(heavy) == 0 {
			return
		}
		s.round(heavy)
		s.m.Phase1Rounds++
		s.collective() // barrier between sweeps
	}
}

// heavy lists the parts whose weight passes keep and that can be
// bisected.
func (s *sim) heavy(keep func(w float64) bool) []int {
	var idx []int
	for i, h := range s.parts {
		if keep(h.q.Weight()) && h.q.CanBisect() {
			idx = append(idx, i)
		}
	}
	return idx
}

// round bisects the parts at idx in one synchronous step: each holder
// keeps the first child and sends the second to a free processor, and
// the slowest transmission ends the step.
func (s *sim) round(idx []int) {
	end := s.now
	for _, i := range idx {
		h := s.parts[i]
		c1, c2 := s.split(h.q, h.proc, s.now)
		dest := s.acquire(h.proc)
		end = max(end, s.send(h.proc, dest, s.now+CostBisect, c2.Weight()))
		s.parts[i].q = c1
		s.parts = append(s.parts, held{c2, dest})
	}
	s.now = end
}
