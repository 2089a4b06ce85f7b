// Package core implements the paper's load-balancing algorithms:
//
//   - HF    — the sequential Heaviest Problem First baseline (Figure 1),
//   - PHF   — the parallel HF that produces the identical partition
//     (Figure 2, Theorem 3),
//   - BA    — Best Approximation of ideal weight, the inherently parallel
//     recursive algorithm (Figure 3, Theorem 7),
//   - BA-HF — the hybrid (Figure 4, Theorem 8).
//
// All algorithms are deterministic given deterministic problems, and all
// return a Result with the quality measure of the paper (the ratio
// against the ideal share). BA′, the BA variant that bootstraps PHF's
// free-processor management (Section 3.4), lives in internal/machine,
// which models its message costs.
//
// Each algorithm exists in two forms. The Problem-interface form (HF, BA,
// BAHF, PHF) walks bisect.Problem values and allocates two child nodes
// per bisection; it accepts any substrate, including the FE-trees,
// quadrature regions and search frontiers that have no flat
// representation. The Planner form (HFInto, BAInto, BAHFInto, PHFInto)
// runs the same algorithms over value-type bisect.FlatNode subproblems
// split by a bisect.Kernel, with every scratch structure owned by a
// reusable Planner and the partition written into a caller-owned Plan —
// zero heap allocations per call once the buffers are warm.
// ParallelPlanner spreads the Planner's BA and BA-HF subtrees over worker
// goroutines and merges them into the identical plan. The forms are
// parity-tested to produce identical partitions; DESIGN.md §10 documents
// the design and the measured difference.
package core
