package searchtree

import (
	"fmt"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// EstimateLeaves implements Knuth's classic random-probe estimator for the
// size of a backtrack-search tree, restricted to the subtree below node v:
// walk a uniformly random root-to-leaf path, multiplying the branching
// factors encountered; the product is an unbiased estimator of the
// subtree's leaf count. Averaging `probes` independent walks reduces the
// (often enormous) variance.
//
// In a real branch-and-bound system the exact subtree sizes this package
// stores in Node.Leaves are unknown; the estimator is what a production
// weight function would use. The test suite verifies unbiasedness against
// the exact counts, and the Noisy problem wrapper of internal/bisect
// models the downstream effect of such estimates on load balance.
func EstimateLeaves(t *Tree, v int, probes int, seed uint64) (float64, error) {
	if t == nil {
		return 0, fmt.Errorf("searchtree: nil tree")
	}
	if v < 0 || v >= len(t.Nodes) {
		return 0, fmt.Errorf("searchtree: node %d out of range", v)
	}
	if probes < 1 {
		return 0, fmt.Errorf("searchtree: probes %d must be ≥ 1", probes)
	}
	rng := xrand.New(xrand.Mix(seed, uint64(v)+0x517cc1b7))
	total := 0.0
	for p := 0; p < probes; p++ {
		// One random descent: product of branching factors along the path.
		weight := 1.0
		cur := v
		for {
			children := t.Children(cur)
			if len(children) == 0 {
				break
			}
			weight *= float64(len(children))
			cur = int(children[rng.Intn(len(children))])
		}
		total += weight
	}
	return total / float64(probes), nil
}

// EstimatedFrontier returns a frontier whose Weight is computed with the
// Knuth estimator instead of the exact leaf counts. It satisfies
// bisect.Problem; the exact weight remains reachable through Exact().
// Estimates are deterministic per (node set, seed), so all algorithms see
// the same estimates.
type EstimatedFrontier struct {
	inner  *Frontier
	probes int
	seed   uint64
	est    float64
}

// NewEstimatedFrontier wraps the tree's root frontier with estimated
// weights.
func NewEstimatedFrontier(t *Tree, probes int, seed uint64) (*EstimatedFrontier, error) {
	if t == nil {
		return nil, fmt.Errorf("searchtree: nil tree")
	}
	if probes < 1 {
		return nil, fmt.Errorf("searchtree: probes %d must be ≥ 1", probes)
	}
	return wrapEstimated(NewFrontier(t), probes, seed)
}

func wrapEstimated(f *Frontier, probes int, seed uint64) (*EstimatedFrontier, error) {
	e := &EstimatedFrontier{inner: f, probes: probes, seed: seed}
	sum := 0.0
	for _, v := range f.nodes {
		x, err := EstimateLeaves(f.tree, v, probes, seed)
		if err != nil {
			return nil, err
		}
		sum += x
	}
	if sum <= 0 {
		sum = 1 // an estimator returning 0 would break the weight contract
	}
	e.est = sum
	return e, nil
}

// Weight returns the estimated leaf count.
func (e *EstimatedFrontier) Weight() float64 { return e.est }

// Exact returns the true leaf count.
func (e *EstimatedFrontier) Exact() float64 { return e.inner.Weight() }

// CanBisect mirrors the underlying frontier.
func (e *EstimatedFrontier) CanBisect() bool { return e.inner.CanBisect() }

// ID mirrors the underlying frontier.
func (e *EstimatedFrontier) ID() uint64 { return e.inner.ID() }

// Bisect splits the underlying frontier exactly as Frontier.Bisect does,
// with the LPT partition on the exact per-node leaf counts, and estimates
// both halves afresh. The child with the larger estimate comes first.
func (e *EstimatedFrontier) Bisect() (bisect.Problem, bisect.Problem) {
	c1, c2 := e.inner.Bisect()
	a, err := wrapEstimated(c1.(*Frontier), e.probes, e.seed)
	if err != nil {
		panic(err) // estimation cannot fail once the root validated
	}
	b, err := wrapEstimated(c2.(*Frontier), e.probes, e.seed)
	if err != nil {
		panic(err)
	}
	if a.est >= b.est {
		return a, b
	}
	return b, a
}

var _ bisect.Problem = (*EstimatedFrontier)(nil)
