package bisectlb

import (
	"fmt"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
)

// This file is the flat planning facade (DESIGN.md §10).
//
// Every algorithm runs on one engine, the Planner: it plans value-type
// FlatNodes split by a Kernel, carries every scratch buffer the
// algorithms need, and writes the partition into a reusable Plan.
// Balance reaches it through the problem kernel, whose Problem.Bisect
// calls still allocate two child nodes each; the synthetic, fixed and
// list substrates are written as flat kernels that hold their state in
// the nodes, so once the buffers are warm they plan with zero heap
// allocations per call, producing partitions identical to Balance's
// (asserted part-by-part in internal/core's parity tests).

// FlatNode is a value-type subproblem; Kernel is its bisector. FlatPart
// is one subproblem of a Plan with its processor assignment.
type (
	FlatNode = bisect.FlatNode
	Kernel   = bisect.Kernel
	FlatPart = core.FlatPart
)

// Planner owns the scratch buffers (heap, node arena, recursion stack)
// for flat planning; Plan is the reusable result it writes into. A
// Planner is not safe for concurrent use — keep one per goroutine, or
// pool them as internal/service does.
type (
	Planner = core.Planner
	Plan    = core.Plan
)

// NewPlanner returns a one-worker planner with buffers pre-sized for
// partitions into about n parts. The zero value also works; it just
// grows its buffers on first use.
func NewPlanner(n int) *Planner { return core.NewPlanner(n) }

// NewParallelPlanner returns a planner for partitions into about n parts
// with opt.Workers workers (zero means GOMAXPROCS). At N ≥ 2^15 it fans
// BA and BA-HF subtree planning across its workers and merges the parts
// deterministically, so every plan is bit-identical to a one-worker
// planner's. HF and PHF, whose global queue admits no bit-identical
// subtree decomposition, and the problem kernel, whose Split is not safe
// for concurrent use, always plan on the calling goroutine.
func NewParallelPlanner(n int, opt ParallelOptions) *Planner { return core.NewParallelPlanner(n, opt) }

// ParallelPlanner is the planner type NewParallelPlanner returns.
//
// Deprecated: use Planner.
type ParallelPlanner = Planner

// NewSyntheticFlat is NewSyntheticProblem for the flat API: it validates
// the same preconditions and returns the problem's root node plus the
// kernel that bisects it, so flat and interface plans for the same
// parameters match exactly.
func NewSyntheticFlat(w, lo, hi float64, seed uint64) (FlatNode, Kernel, error) {
	return nodeFlat(bisect.NewSynthetic(w, lo, hi, seed))
}

// NewFixedFlat is NewFixedProblem for the flat API.
func NewFixedFlat(w, alpha float64) (FlatNode, Kernel, error) {
	return nodeFlat(bisect.NewFixed(w, alpha))
}

// NewListFlat is NewListProblem for the flat API.
func NewListFlat(n int, alpha float64, seed uint64) (FlatNode, Kernel, error) {
	return nodeFlat(bisect.NewList(n, alpha, seed))
}

// nodeFlat unwraps a validated constructor's node and kernel.
func nodeFlat[K Kernel](p *bisect.Node[K], err error) (FlatNode, Kernel, error) {
	if err != nil {
		return FlatNode{}, nil, err
	}
	root, k := p.Flat()
	return root, k, nil
}

// NewProblemFlat returns the flat root and kernel for any Problem, so a
// custom Problem — or an FE-tree, quadrature, search-tree, graph or
// spatial instance — plans on a Planner exactly as Balance would plan
// it. A synthetic, fixed or list problem is already a kernel's node and
// returns that node and kernel. Any other Problem gets the problem
// kernel, which keeps the Problems its splits produce in an arena and
// asks CanBisect only when a planner reaches a node, through its
// CanSplit(FlatNode) bool method; a kernel that wraps it must forward
// CanSplit. It serves one plan, and its Split is not safe for
// concurrent use: a planner with workers recognises it and plans on one
// goroutine.
func NewProblemFlat(p Problem) (FlatNode, Kernel, error) {
	if root, k, ok := bisect.FlatOf(p); ok {
		return root, k, nil
	}
	root, k, err := core.NewProblemKernel(p, Options{})
	if err != nil {
		return FlatNode{}, nil, err
	}
	return root, k, nil
}

// BalanceInto is Balance for the flat API: it partitions root into at
// most n parts with the configured algorithm, writing the result into
// plan using pl's scratch buffers (and its workers, for a planner built
// by NewParallelPlanner). Input validation matches Balance —
// the same typed errors for the same violations. Plan.Algorithm is the
// bare algorithm name ("BA-HF", not "BA-HF(κ=…)"); callers that need
// Balance's parameterised label format it themselves.
func BalanceInto(plan *Plan, pl *Planner, k Kernel, root FlatNode, n int, cfg Config) error {
	if plan == nil || pl == nil {
		return fmt.Errorf("bisectlb: BalanceInto needs a non-nil plan and planner")
	}
	if k == nil {
		return fmt.Errorf("%w (nil kernel)", ErrNilProblem)
	}
	cfg, err := checkConfig(n, cfg)
	if err != nil {
		return err
	}
	switch cfg.Algorithm {
	case HFAlgorithm:
		return pl.HFInto(plan, k, root, n)
	case BAAlgorithm:
		return pl.BAInto(plan, k, root, n)
	case BAHFAlgorithm:
		return pl.BAHFInto(plan, k, root, n, cfg.Alpha, cfg.Kappa)
	}
	return pl.PHFInto(plan, k, root, n, cfg.Alpha)
}

// ParallelBalanceInto is BalanceInto.
//
// Deprecated: use BalanceInto; a planner's workers were fixed when it
// was built.
func ParallelBalanceInto(plan *Plan, pp *Planner, k Kernel, root FlatNode, n int, cfg Config) error {
	return BalanceInto(plan, pp, k, root, n, cfg)
}
