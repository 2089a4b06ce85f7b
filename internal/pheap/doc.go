// Package pheap implements the heaviest-first priority queue that drives
// Algorithm HF (paper Figure 1) and the HF inner phase of Algorithm BA-HF
// (Figure 4): a monotone bucket queue keyed by (weight, id). Weights
// decide the order and node ids break ties deterministically so that
// runs are reproducible and the PHF ≡ HF comparison (Theorem 3) is
// meaningful even in the presence of equal weights.
//
// Items carry an int32 Ref instead of an interface{} payload: callers keep
// their subproblems in a slice arena and store the index here. That keeps
// every queue operation allocation-free — pushing an interface payload
// would box it on every Push, which dominated the allocation profile of
// the HF hot path (DESIGN.md §10).
package pheap
