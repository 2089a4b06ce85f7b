package bisectlb

import (
	"bisectlb/internal/core"
)

// This file is the incremental-replanning facade (DESIGN.md §15).
//
// A plan computed by BalanceInto describes the weights the kernel
// predicted; once the application runs, observed loads drift. Instead of
// replanning from scratch, a DeltaPlanner locates the parts whose
// drifted load left the α-band, re-bisects only those subtrees, and
// splices the fragments back over the pooled processors — returning the
// prior plan untouched when nothing drifted far enough, and falling back
// to a bit-identical from-scratch plan when nearly everything did.

// WeightDelta reports observed drift on one part: the part's true load
// is Factor times its planned weight.
type WeightDelta = core.WeightDelta

// PatchOptions configures a patch: Alpha is required, and Kappa is read
// for a BA-HF prior. PatchStats describes what the patch did, and
// PatchOutcome classifies it (noop / patched / full replan).
type (
	PatchOptions = core.PatchOptions
	PatchStats   = core.PatchStats
	PatchOutcome = core.PatchOutcome
)

// Patch outcomes (see core.PatchOutcome).
const (
	PatchNoop       = core.PatchNoop
	PatchPatched    = core.PatchPatched
	PatchFullReplan = core.PatchFullReplan
)

// PatchedPlan is the reusable result buffer of a patch: the spliced
// plan plus the Group/GroupProcs arrays that express several parts
// sharing one processor — something Plan alone cannot.
type PatchedPlan = core.PatchedPlan

// DeltaPlanner patches plans against drifted weight vectors. Like
// Planner it is not safe for concurrent use; pool one per goroutine.
type DeltaPlanner = core.DeltaPlanner

// NewDeltaPlanner returns a delta planner sized for plans of about n
// parts, repairing and replanning on a one-worker planner.
func NewDeltaPlanner(n int) *DeltaPlanner { return core.NewDeltaPlanner(n) }

// NewParallelDeltaPlanner is NewDeltaPlanner over a planner built by
// NewParallelPlanner: at N ≥ 2^15 its full replans fan out, and so do
// repairs of at least 32 dirty subtrees.
func NewParallelDeltaPlanner(n int, opt ParallelOptions) *DeltaPlanner {
	return core.NewParallelDeltaPlanner(n, opt)
}

// Patch errors, for errors.Is against PatchInto failures.
var (
	ErrUnknownPart  = core.ErrUnknownPart
	ErrBadFactor    = core.ErrBadFactor
	ErrPlanMismatch = core.ErrPlanMismatch
)
