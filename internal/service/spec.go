package service

import (
	"fmt"
	"strconv"

	"bisectlb"
)

// ProblemSpec describes a problem substrate by family name and the
// parameters that pin one deterministic instance of it. Because every
// substrate in this repository is a pure function of its parameters and
// seed, a spec is a complete, canonicalisable identity for the root
// problem — which is what makes partition plans cacheable.
type ProblemSpec struct {
	// Family selects the substrate: "uniform", "fixed", "list", "fem",
	// "quadrature", "searchtree", "graph" or "spatial". The last two are
	// the seed-derived real-instance generators of DESIGN.md §16 —
	// file-loaded instances stay out of specs so a spec remains a pure,
	// canonicalisable parameter set.
	Family string `json:"family"`
	// Weight is the root weight for the synthetic families (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Lo, Hi bound the per-bisection α̂ draw of the "uniform" family.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// SplitAlpha is the split parameter of the "fixed" family and the
	// pivot guard of the "list" family.
	SplitAlpha float64 `json:"split_alpha,omitempty"`
	// Elems is the element count of the "list" family.
	Elems int `json:"elems,omitempty"`
	// Split selects the quadrature bisector: "median" (default) or
	// "midpoint".
	Split string `json:"split,omitempty"`
	// Seed pins the instance for the seeded families.
	Seed uint64 `json:"seed"`
}

// BalanceRequest is the body of POST /v1/balance.
type BalanceRequest struct {
	Spec ProblemSpec `json:"spec"`
	// N is the processor count to partition for.
	N int `json:"n"`
	// Algorithm names the strategy ("HF", "BA", "BA-HF", "PHF",
	// "parallel-BA", "parallel-PHF"); default "HF".
	Algorithm string `json:"algorithm,omitempty"`
	// Alpha is the declared class α, required by PHF and BA-HF.
	Alpha float64 `json:"alpha,omitempty"`
	// Kappa is BA-HF's threshold parameter (0 means 1.0; normalize
	// applies the default).
	Kappa float64 `json:"kappa,omitempty"`
	// DeadlineMS caps the request's time in queue + compute; 0 uses the
	// server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant identifies the caller for fairness and rate limiting when
	// the tenant header is absent. Like DeadlineMS it shapes admission,
	// not the plan, so it is excluded from the cache key.
	Tenant string `json:"tenant,omitempty"`
}

// normalize fills defaulted fields so that requests differing only in
// elided defaults canonicalise to the same cache key.
func (r *BalanceRequest) normalize() {
	if r.Algorithm == "" {
		r.Algorithm = "HF"
	}
	if r.Kappa == 0 {
		r.Kappa = 1 // Balance's BA-HF default; canonicalise so 0 and 1 coincide
	}
	switch r.Spec.Family {
	case "uniform", "fixed":
		if r.Spec.Weight == 0 {
			r.Spec.Weight = 1
		}
	}
	if r.Spec.Family == "quadrature" && r.Spec.Split == "" {
		r.Spec.Split = "median"
	}
}

// validate rejects malformed specs before any work is admitted. The
// algorithm-level parameters (n, alpha, kappa) are deliberately NOT fully
// validated here: they go straight to bisectlb.Balance, whose typed
// errors the handler maps to client responses — the facade is the single
// source of truth for its own preconditions.
func (r *BalanceRequest) validate() error {
	switch r.Spec.Family {
	case "uniform":
		if !(r.Spec.Lo > 0 && r.Spec.Lo <= r.Spec.Hi && r.Spec.Hi <= 0.5) {
			return fmt.Errorf("uniform family needs 0 < lo ≤ hi ≤ 1/2, got [%g, %g]", r.Spec.Lo, r.Spec.Hi)
		}
		if !(r.Spec.Weight > 0) {
			return fmt.Errorf("uniform family needs weight > 0, got %g", r.Spec.Weight)
		}
	case "fixed":
		if !(r.Spec.SplitAlpha > 0 && r.Spec.SplitAlpha <= 0.5) {
			return fmt.Errorf("fixed family needs 0 < split_alpha ≤ 1/2, got %g", r.Spec.SplitAlpha)
		}
		if !(r.Spec.Weight > 0) {
			return fmt.Errorf("fixed family needs weight > 0, got %g", r.Spec.Weight)
		}
	case "list":
		if r.Spec.Elems < 1 {
			return fmt.Errorf("list family needs elems ≥ 1, got %d", r.Spec.Elems)
		}
		if !(r.Spec.SplitAlpha > 0 && r.Spec.SplitAlpha <= 0.5) {
			return fmt.Errorf("list family needs 0 < split_alpha ≤ 1/2, got %g", r.Spec.SplitAlpha)
		}
	case "fem", "searchtree", "graph", "spatial":
		// Seed-only families.
	case "quadrature":
		if r.Spec.Split != "median" && r.Spec.Split != "midpoint" {
			return fmt.Errorf("quadrature split must be median or midpoint, got %q", r.Spec.Split)
		}
	case "":
		return fmt.Errorf("spec.family is required")
	default:
		return fmt.Errorf("unknown problem family %q", r.Spec.Family)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be ≥ 0, got %d", r.DeadlineMS)
	}
	return nil
}

// buildProblem materialises the spec through the public facade. Specs are
// deterministic, so rebuilding yields an identical root every time.
func (r *BalanceRequest) buildProblem() (bisectlb.Problem, error) {
	switch r.Spec.Family {
	case "uniform":
		return bisectlb.NewSyntheticProblem(r.Spec.Weight, r.Spec.Lo, r.Spec.Hi, r.Spec.Seed)
	case "fixed":
		return bisectlb.NewFixedProblem(r.Spec.Weight, r.Spec.SplitAlpha)
	case "list":
		return bisectlb.NewListProblem(r.Spec.Elems, r.Spec.SplitAlpha, r.Spec.Seed)
	case "fem":
		return bisectlb.DefaultFEMTreeProblem(r.Spec.Seed), nil
	case "quadrature":
		split := bisectlb.QuadratureMedianSplit
		if r.Spec.Split == "midpoint" {
			split = bisectlb.QuadratureMidpointSplit
		}
		return bisectlb.NewQuadratureProblem(split, r.Spec.Seed)
	case "searchtree":
		return bisectlb.DefaultSearchTreeProblem(r.Spec.Seed), nil
	case "graph":
		return bisectlb.NewGraphProblem(r.Spec.Seed)
	case "spatial":
		return bisectlb.NewSpatialProblem(r.Spec.Seed)
	default:
		return nil, fmt.Errorf("unknown problem family %q", r.Spec.Family)
	}
}

// appendKey appends the canonical identity of the partition plan this
// request asks for to b and returns the extended slice. Two requests with
// the same key receive byte-identical plans, so the key is safe to cache
// and to coalesce on. Deadline is excluded: it shapes admission, not the
// plan.
//
// The append-into-caller-buffer form exists for the serving hot path: the
// handler keeps key buffers in a pool, so canonicalising a request does
// not allocate (the fmt/Builder-based predecessor cost ~10 allocations
// per request; DESIGN.md §10). Callers that don't care use cacheKey.
func (r *BalanceRequest) appendKey(b []byte) []byte {
	b = append(b, "f="...)
	b = append(b, r.Spec.Family...)
	switch r.Spec.Family {
	case "uniform":
		b = appendFloatField(b, ",w=", r.Spec.Weight)
		b = appendFloatField(b, ",lo=", r.Spec.Lo)
		b = appendFloatField(b, ",hi=", r.Spec.Hi)
		b = appendSeedField(b, r.Spec.Seed)
	case "fixed":
		b = appendFloatField(b, ",w=", r.Spec.Weight)
		b = appendFloatField(b, ",sa=", r.Spec.SplitAlpha)
	case "list":
		b = append(b, ",e="...)
		b = strconv.AppendInt(b, int64(r.Spec.Elems), 10)
		b = appendFloatField(b, ",sa=", r.Spec.SplitAlpha)
		b = appendSeedField(b, r.Spec.Seed)
	case "fem", "searchtree", "graph", "spatial":
		b = appendSeedField(b, r.Spec.Seed)
	case "quadrature":
		b = append(b, ",sp="...)
		b = append(b, r.Spec.Split...)
		b = appendSeedField(b, r.Spec.Seed)
	}
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, "|alg="...)
	b = appendUpper(b, r.Algorithm)
	b = appendFloatField(b, "|a=", r.Alpha)
	b = appendFloatField(b, "|k=", r.Kappa)
	return b
}

// cacheKey is appendKey as a string, for tests and one-off callers.
func (r *BalanceRequest) cacheKey() string { return string(r.appendKey(nil)) }

func appendFloatField(b []byte, label string, v float64) []byte {
	b = append(b, label...)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendSeedField(b []byte, seed uint64) []byte {
	b = append(b, ",s="...)
	return strconv.AppendUint(b, seed, 10)
}

// appendUpper appends s upper-cased with surrounding spaces trimmed,
// byte-wise (algorithm names are ASCII), matching
// strings.ToUpper(strings.TrimSpace(s)) without allocating.
func appendUpper(b []byte, s string) []byte {
	start, end := 0, len(s)
	for start < end && isSpace(s[start]) {
		start++
	}
	for end > start && isSpace(s[end-1]) {
		end--
	}
	for i := start; i < end; i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// FNV-1a, inlined: hash/fnv allocates a hasher object per call, which the
// per-request signature and shard-selection paths cannot afford.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func fnv64aString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// signature condenses a cache key into the short hex form reported in
// plans and logs. It equals FNV-1a of the key, matching signatureBytes.
func signature(key string) string {
	return strconv.FormatUint(fnv64aString(key), 16)
}

// signatureBytes is signature for a byte-slice key.
func signatureBytes(key []byte) string {
	return strconv.FormatUint(fnv64a(key), 16)
}
