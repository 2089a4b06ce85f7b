package core

// Failure-injection tests: broken Problem implementations must not corrupt
// results silently — either the run still terminates with a structurally
// detectable defect (CheckPartition / tree recording flags it) or the
// algorithms degrade as documented.

import (
	"math"
	"testing"

	"bisectlb/internal/bisect"
)

// leakyProblem violates weight conservation: children sum to less than the
// parent (models work lost by a buggy splitter).
type leakyProblem struct {
	weight float64
	id     uint64
}

func (l *leakyProblem) Weight() float64 { return l.weight }
func (l *leakyProblem) CanBisect() bool { return true }
func (l *leakyProblem) ID() uint64      { return l.id }
func (l *leakyProblem) Bisect() (bisect.Problem, bisect.Problem) {
	return &leakyProblem{weight: 0.5 * l.weight, id: 2 * l.id},
		&leakyProblem{weight: 0.3 * l.weight, id: 2*l.id + 1}
}

func TestLeakyWeightsDetectedByCheckPartition(t *testing.T) {
	res, err := HF(&leakyProblem{weight: 1, id: 1}, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckPartition(1e-9); err == nil {
		t.Fatal("CheckPartition missed the leaked weight")
	}
}

func TestLeakyWeightsDetectedByTree(t *testing.T) {
	res, err := HF(&leakyProblem{weight: 1, id: 1}, 8, Options{RecordTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.CheckInvariants(1e-9); err == nil {
		t.Fatal("tree invariants missed the leaked weight")
	}
}

// collidingProblem reuses the same ID for every node — a broken identity
// scheme. Tree recording must refuse it rather than silently mis-recording.
type collidingProblem struct {
	weight float64
}

func (c *collidingProblem) Weight() float64 { return c.weight }
func (c *collidingProblem) CanBisect() bool { return true }
func (c *collidingProblem) ID() uint64      { return 42 }
func (c *collidingProblem) Bisect() (bisect.Problem, bisect.Problem) {
	return &collidingProblem{weight: 0.6 * c.weight}, &collidingProblem{weight: 0.4 * c.weight}
}

func TestIDCollisionRejectedByTreeRecording(t *testing.T) {
	if _, err := HF(&collidingProblem{weight: 1}, 8, Options{RecordTree: true}); err == nil {
		t.Fatal("ID collision not rejected")
	}
	if _, err := BA(&collidingProblem{weight: 1}, 8, Options{RecordTree: true}); err == nil {
		t.Fatal("ID collision not rejected by BA")
	}
	if _, err := PHF(&collidingProblem{weight: 1}, 8, 0.4, Options{RecordTree: true}); err == nil {
		t.Fatal("ID collision not rejected by PHF")
	}
}

// nanRoot reports a NaN weight.
type nanRoot struct{}

func (nanRoot) Weight() float64                          { return math.NaN() }
func (nanRoot) CanBisect() bool                          { return true }
func (nanRoot) ID() uint64                               { return 1 }
func (nanRoot) Bisect() (bisect.Problem, bisect.Problem) { return nanRoot{}, nanRoot{} }

func TestNaNRootRejected(t *testing.T) {
	if _, err := HF(nanRoot{}, 4, Options{}); err == nil {
		t.Fatal("NaN root accepted by HF")
	}
	if _, err := BA(nanRoot{}, 4, Options{}); err == nil {
		t.Fatal("NaN root accepted by BA")
	}
	if _, err := PHF(nanRoot{}, 4, 0.2, Options{}); err == nil {
		t.Fatal("NaN root accepted by PHF")
	}
	if _, err := BAHF(nanRoot{}, 4, 0.2, 1, Options{}); err == nil {
		t.Fatal("NaN root accepted by BA-HF")
	}
}

// infRoot reports an infinite weight.
type infRoot struct{ nanRoot }

func (infRoot) Weight() float64 { return math.Inf(1) }

func TestInfiniteRootRejected(t *testing.T) {
	if _, err := HF(infRoot{}, 4, Options{}); err == nil {
		t.Fatal("infinite root accepted")
	}
}

// growingProblem violates the bisector contract upwards: children sum to
// MORE than the parent. HF must still terminate with exactly n parts (the
// loop is count-driven, not weight-driven) and CheckPartition must flag it.
type growingProblem struct {
	weight float64
	id     uint64
}

func (g *growingProblem) Weight() float64 { return g.weight }
func (g *growingProblem) CanBisect() bool { return true }
func (g *growingProblem) ID() uint64      { return g.id }
func (g *growingProblem) Bisect() (bisect.Problem, bisect.Problem) {
	return &growingProblem{weight: 0.7 * g.weight, id: 2 * g.id},
		&growingProblem{weight: 0.6 * g.weight, id: 2*g.id + 1}
}

func TestGrowingWeightsTerminate(t *testing.T) {
	res, err := HF(&growingProblem{weight: 1, id: 1}, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 64 || res.Bisections != 63 {
		t.Fatalf("parts=%d bisections=%d", len(res.Parts), res.Bisections)
	}
	if err := res.CheckPartition(1e-9); err == nil {
		t.Fatal("CheckPartition missed the invented weight")
	}
}

// flipFlopProblem returns different children on repeated Bisect calls,
// breaking the determinism contract. The PHF ≡ HF identity is then void,
// but both algorithms must still terminate with valid part counts.
type flipFlopProblem struct {
	weight float64
	id     uint64
	calls  *int
}

func (f *flipFlopProblem) Weight() float64 { return f.weight }
func (f *flipFlopProblem) CanBisect() bool { return true }
func (f *flipFlopProblem) ID() uint64      { return f.id }
func (f *flipFlopProblem) Bisect() (bisect.Problem, bisect.Problem) {
	*f.calls++
	frac := 0.5
	if *f.calls%2 == 0 {
		frac = 0.35
	}
	return &flipFlopProblem{weight: frac * f.weight, id: 2 * f.id, calls: f.calls},
		&flipFlopProblem{weight: (1 - frac) * f.weight, id: 2*f.id + 1, calls: f.calls}
}

func TestNonDeterministicBisectStillTerminates(t *testing.T) {
	calls := 0
	res, err := HF(&flipFlopProblem{weight: 1, id: 1, calls: &calls}, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 32 {
		t.Fatalf("parts = %d", len(res.Parts))
	}
	calls = 0
	phf, err := PHF(&flipFlopProblem{weight: 1, id: 1, calls: &calls}, 32, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(phf.Parts) > 32 {
		t.Fatalf("PHF produced %d parts", len(phf.Parts))
	}
}
