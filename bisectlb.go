// Package bisectlb is a Go implementation of the load-balancing framework
// of Bischof, Ebner and Erlebach, "Parallel Load Balancing for Problems
// with Good Bisectors" (IPPS/SPDP 1999).
//
// A class of problems has α-bisectors if every problem of weight w can be
// split into two subproblems whose weights sum to w and each lie within
// [α·w, (1−α)·w]. Given such a problem and N processors, the package
// partitions the problem into at most N subproblems by repeated bisection
// while provably bounding the maximum subproblem weight relative to the
// ideal share w/N:
//
//	HF     — sequential Heaviest Problem First; guarantee r_α.
//	PHF    — parallel HF producing the identical partition in O(log N)
//	         model time (for fixed α).
//	BA     — Best Approximation: inherently parallel recursive splitting,
//	         no knowledge of α, no global communication.
//	BA-HF  — hybrid with threshold parameter κ; its guarantee approaches
//	         HF's as κ grows.
//
// Problems enter through the Problem interface; packages under internal/
// provide ready-made substrates (the paper's synthetic stochastic model,
// FE-trees from adaptive substructuring, adaptive-quadrature regions and
// branch-and-bound search frontiers), all re-exported via constructors
// here. See README.md for a walk-through and DESIGN.md for the
// paper-to-code map.
package bisectlb

import (
	"errors"
	"fmt"
	"strings"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
)

// Typed errors returned by Balance for invalid input. Callers that hand
// user-supplied requests to Balance (the lbserve service does exactly
// this) can map them to client-error responses with errors.Is.
var (
	// ErrNilProblem is returned when the root problem is nil.
	ErrNilProblem = bisect.ErrNilProblem
	// ErrBadN is returned when the processor count is < 1.
	ErrBadN = errors.New("bisectlb: processor count must be ≥ 1")
	// ErrAlphaRequired is returned when an α-aware algorithm (PHF or
	// BA-HF) is selected without declaring Alpha.
	ErrAlphaRequired = errors.New("bisectlb: algorithm requires Alpha (0 < α ≤ 1/2)")
	// ErrBadAlpha is returned when a declared Alpha lies outside (0, 1/2].
	ErrBadAlpha = errors.New("bisectlb: Alpha must satisfy 0 < α ≤ 1/2")
	// ErrBadKappa is returned when BA-HF's Kappa is negative or NaN.
	ErrBadKappa = errors.New("bisectlb: Kappa must be positive")
	// ErrUnknownAlgorithm is returned for an Algorithm value outside the
	// declared constants.
	ErrUnknownAlgorithm = errors.New("bisectlb: unknown algorithm")
)

// Problem is the unit of divisible load. See the documentation of
// internal/bisect.Problem for the determinism contract implementations
// must honour.
type Problem = bisect.Problem

// Result describes a computed partition; Part one of its subproblems.
type (
	Result    = core.Result
	Part      = core.Part
	PHFResult = core.PHFResult
)

// Options configure tree recording; ParallelOptions configure a planner
// built by NewParallelPlanner.
type (
	Options         = core.Options
	ParallelOptions = core.ParallelOptions
)

// Violation reports a breach of the α-bisector contract found by CheckAlpha.
type Violation = bisect.Violation

// Algorithm selects a load-balancing strategy for Balance.
type Algorithm int

const (
	// HFAlgorithm is the sequential heaviest-first baseline.
	HFAlgorithm Algorithm = iota
	// BAAlgorithm is the recursive best-approximation algorithm.
	BAAlgorithm
	// BAHFAlgorithm is the BA/HF hybrid (requires Alpha; Kappa > 0).
	BAHFAlgorithm
	// PHFAlgorithm is the parallelised HF (requires Alpha).
	PHFAlgorithm
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case HFAlgorithm:
		return "HF"
	case BAAlgorithm:
		return "BA"
	case BAHFAlgorithm:
		return "BA-HF"
	case PHFAlgorithm:
		return "PHF"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps an algorithm name (as produced by Algorithm.String,
// case-insensitively and accepting the "BAHF" shorthand) back to its
// constant. The names "parallel-BA"/"PBA" and "parallel-PHF"/"PPHF" are
// accepted as aliases of BA and PHF: the paper's parallel executions
// compute the same partitions, so they plan identically. Unknown names
// return ErrUnknownAlgorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "HF":
		return HFAlgorithm, nil
	case "BA", "PARALLEL-BA", "PBA":
		return BAAlgorithm, nil
	case "BA-HF", "BAHF":
		return BAHFAlgorithm, nil
	case "PHF", "PARALLEL-PHF", "PPHF":
		return PHFAlgorithm, nil
	default:
		return 0, fmt.Errorf("%w %q", ErrUnknownAlgorithm, s)
	}
}

// Config selects and parameterises an algorithm for Balance.
type Config struct {
	// Algorithm picks the strategy; the zero value is HF.
	Algorithm Algorithm
	// Alpha is the class's bisector guarantee, required by PHF and BA-HF.
	// Must satisfy 0 < Alpha ≤ 1/2 where required.
	Alpha float64
	// Kappa is BA-HF's threshold parameter; zero means 1.0.
	Kappa float64
	// Options configure bisection-tree recording (Balance only).
	Options Options
}

// checkConfig validates n and cfg for Balance and BalanceInto, so every
// rejection is a typed error regardless of which algorithm would have
// received it. It returns cfg with BA-HF's default κ = 1 applied.
func checkConfig(n int, cfg Config) (Config, error) {
	if n < 1 {
		return cfg, fmt.Errorf("%w, got %d", ErrBadN, n)
	}
	switch cfg.Algorithm {
	case HFAlgorithm, BAAlgorithm:
		// α-oblivious algorithms.
	case PHFAlgorithm, BAHFAlgorithm:
		if cfg.Alpha == 0 {
			return cfg, fmt.Errorf("%w: %s needs it", ErrAlphaRequired, cfg.Algorithm)
		}
		if !(cfg.Alpha > 0 && cfg.Alpha <= 0.5) {
			return cfg, fmt.Errorf("%w, got %v", ErrBadAlpha, cfg.Alpha)
		}
		if cfg.Algorithm == BAHFAlgorithm {
			if !(cfg.Kappa >= 0) {
				return cfg, fmt.Errorf("%w, got %v", ErrBadKappa, cfg.Kappa)
			}
			if cfg.Kappa == 0 {
				cfg.Kappa = 1
			}
		}
	default:
		return cfg, fmt.Errorf("%w %v", ErrUnknownAlgorithm, cfg.Algorithm)
	}
	return cfg, nil
}

// Balance partitions p into at most n subproblems with the configured
// algorithm. Invalid input — a nil problem, n < 1, a missing or
// out-of-range Alpha for an α-aware algorithm, a negative or NaN Kappa,
// or an unknown Algorithm — is rejected with one of the typed errors
// above.
func Balance(p Problem, n int, cfg Config) (*Result, error) {
	if p == nil {
		return nil, ErrNilProblem
	}
	cfg, err := checkConfig(n, cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Algorithm {
	case HFAlgorithm:
		return core.HF(p, n, cfg.Options)
	case BAAlgorithm:
		return core.BA(p, n, cfg.Options)
	case BAHFAlgorithm:
		return core.BAHF(p, n, cfg.Alpha, cfg.Kappa, cfg.Options)
	}
	r, err := core.PHF(p, n, cfg.Alpha, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &r.Result, nil
}

// HF runs the sequential Heaviest Problem First algorithm.
func HF(p Problem, n int) (*Result, error) { return core.HF(p, n, Options{}) }

// BA runs the Best Approximation algorithm.
func BA(p Problem, n int) (*Result, error) { return core.BA(p, n, Options{}) }

// BAHF runs the BA/HF hybrid with bisector parameter alpha and threshold
// parameter kappa.
func BAHF(p Problem, n int, alpha, kappa float64) (*Result, error) {
	return core.BAHF(p, n, alpha, kappa, Options{})
}

// PHF runs the parallelised HF, returning phase accounting alongside the
// partition. The partition equals HF's whenever subproblem weights are
// tie-free (see core.PHF for the tie caveat).
func PHF(p Problem, n int, alpha float64) (*PHFResult, error) {
	return core.PHF(p, n, alpha, Options{})
}

// SamePartition reports whether two results consist of the same
// subproblems (compared by problem ID).
func SamePartition(a, b *Result) bool { return core.SamePartition(a, b) }

// GuaranteeHF returns r_α, the worst-case ratio bound of HF and PHF
// (Theorem 2 of the paper).
func GuaranteeHF(alpha float64) (float64, error) { return bounds.Guarantee("HF", alpha, 0, 1) }

// GuaranteeBA returns BA's worst-case ratio bound for n processors
// (Theorem 7 / Lemma 5).
func GuaranteeBA(alpha float64, n int) (float64, error) { return bounds.Guarantee("BA", alpha, 0, n) }

// GuaranteeBAHF returns BA-HF's worst-case ratio bound (Theorem 8).
func GuaranteeBAHF(alpha, kappa float64) (float64, error) {
	return bounds.Guarantee("BA-HF", alpha, kappa, 1)
}

// KappaFor returns the κ that brings BA-HF's guarantee within a (1+eps)
// factor of HF's (the paper's closing tuning rule).
func KappaFor(eps float64) (float64, error) {
	if !(eps > 0) {
		return 0, fmt.Errorf("bisectlb: eps must be positive, got %v", eps)
	}
	return bounds.KappaFor(eps), nil
}

// CheckAlpha explores p's bisection tree to maxDepth levels and reports
// violations of the α-bisector contract (children summing to the parent and
// staying within [α·w, (1−α)·w], with relative tolerance tol). Use it to
// validate a custom Problem implementation before declaring α to PHF or
// BA-HF.
func CheckAlpha(p Problem, alpha float64, maxDepth int, tol float64) []Violation {
	return bisect.Check(p, alpha, maxDepth, tol)
}
