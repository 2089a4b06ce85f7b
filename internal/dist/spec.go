package dist

import (
	"fmt"

	"bisectlb/internal/bisect"
)

// Spec is the wire representation of a problem. Only the synthetic class
// is transportable: real substrates (FE-trees, quadrature domains) would
// ship their own domain data in a production system; the synthetic class
// exercises the identical control and communication paths.
type Spec struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
	Seed   uint64  `json:"seed"`
	ALo    float64 `json:"alo"`
	AHi    float64 `json:"ahi"`
	Depth  int     `json:"depth"`
}

// specKindSynthetic is the only kind currently registered.
const specKindSynthetic = "synthetic"

// Encode converts a problem into its wire form. Only the synthetic class
// (a problem whose kernel is a bisect.SyntheticKernel) is supported;
// other problems return an error.
func Encode(p bisect.Problem) (Spec, error) {
	n, k, _ := bisect.FlatOf(p)
	sk, ok := k.(bisect.SyntheticKernel)
	if !ok {
		return Spec{}, fmt.Errorf("dist: cannot encode problem of type %T", p)
	}
	return Spec{
		Kind:   specKindSynthetic,
		Weight: n.Weight,
		Seed:   n.S0,
		ALo:    sk.Lo,
		AHi:    sk.Hi,
		Depth:  int(n.Depth),
	}, nil
}

// Decode reconstructs the problem from its wire form.
func Decode(s Spec) (bisect.Problem, error) {
	if s.Kind != specKindSynthetic {
		return nil, fmt.Errorf("dist: unknown problem kind %q", s.Kind)
	}
	return bisect.RehydrateSynthetic(s.Weight, s.ALo, s.AHi, s.Seed, s.Depth)
}

// message is the single wire envelope; Type discriminates. Every data
// message carries an ID derived from the subproblem's bisection seed
// (fault.go); receivers acknowledge and dedup on it, which makes delivery
// at-least-once on the wire but exactly-once in effect.
type message struct {
	Type string `json:"type"`
	// ID identifies the message for acks, dedup and fault decisions.
	ID uint64 `json:"id,omitempty"`
	// assign
	Problem Spec `json:"problem,omitempty"`
	Lo      int  `json:"lo,omitempty"`
	Hi      int  `json:"hi,omitempty"`
	// Lease is the lease the assignment (re-)creates — equal to ID for
	// assigns; for parts and claims it is the covering lease being
	// discharged or split.
	Lease uint64 `json:"lease,omitempty"`
	// Parent is the lease the new lease was split from (claims/assigns).
	Parent uint64 `json:"parent,omitempty"`
	// Reissue marks a coordinator re-issue of an expired or orphaned
	// lease; Gen is its re-issue generation. A node re-executes a lease
	// it has seen before whenever the generation advances past the last
	// one it executed, so the coordinator can always force another
	// (deterministic, hence safe) re-execution of an undischarged lease.
	Reissue bool   `json:"reissue,omitempty"`
	Gen     uint64 `json:"gen,omitempty"`
	// part (node → coordinator)
	Part     Spec `json:"part,omitempty"`
	PartLo   int  `json:"part_lo,omitempty"`
	PartHi   int  `json:"part_hi,omitempty"`
	FromNode int  `json:"from_node,omitempty"`
	// owner updates (coordinator → nodes): Dead's interval is adopted by
	// Adopter, so hand-offs for Dead's processors reroute.
	Dead    int `json:"dead,omitempty"`
	Adopter int `json:"adopter,omitempty"`
}

const (
	msgAssign = "assign"
	msgPart   = "part"
	msgAck    = "ack"
	msgClaim  = "claim"
	msgBeat   = "beat"
	msgOwner  = "owner"
)
