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
// Every algorithm runs on one engine, the Planner (HFInto, BAInto,
// BAHFInto, PHFInto): value-type bisect.FlatNode subproblems split by a
// bisect.Kernel, with every scratch structure owned by a reusable
// Planner and the partition written into a caller-owned Plan — zero
// heap allocations per call for a flat kernel once the buffers are warm.
// HF, BA, BAHF and PHF plan any bisect.Problem on it through the problem
// kernel (ProblemKernel), which asks CanBisect only where the paper's
// algorithms do, and convert the Plan into a Result. A Planner built
// by NewParallelPlanner spreads large BA and BA-HF plans' subtrees over
// worker goroutines and merges them into the identical plan. The paper's direct recursions
// over Problem values are kept in oracle_test.go as the parity oracle;
// DESIGN.md §10 documents the design.
package core
