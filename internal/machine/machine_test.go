package machine

import (
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
	"bisectlb/internal/topology"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := &engine{}
	var order []int
	e.at(5, func() { order = append(order, 5) })
	e.at(1, func() { order = append(order, 1) })
	e.at(3, func() {
		order = append(order, 3)
		e.at(4, func() { order = append(order, 4) })
	})
	end := e.run()
	want := []int{1, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 5 {
		t.Fatalf("end time = %d", end)
	}
}

func TestEngineTiesFIFO(t *testing.T) {
	e := &engine{}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.at(7, func() { order = append(order, i) })
	}
	e.run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEngineRejectsPastEvents(t *testing.T) {
	e := &engine{}
	e.at(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.at(3, func() {})
	})
	e.run()
}

func TestRunHFLinearMakespan(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 1)
	m, err := RunHF(p, topology.NewComplete(256), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 255 bisections + 255 sends.
	if m.Makespan != 510 {
		t.Fatalf("makespan = %d, want 510", m.Makespan)
	}
	if m.Messages != 255 || m.Bisections != 255 || m.Parts != 256 {
		t.Fatalf("messages=%d bisections=%d parts=%d", m.Messages, m.Bisections, m.Parts)
	}
}

func TestRunBALogarithmicMakespan(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 2)
	m10, err := RunBA(p, topology.NewComplete(1<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	m16, err := RunBA(p, topology.NewComplete(1<<16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m10.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// O(log N): 64× more processors must cost far less than 64× time.
	if growth := float64(m16.Makespan) / float64(m10.Makespan); growth > 3 {
		t.Fatalf("BA makespan grew %vx — not logarithmic", growth)
	}
	// Depth bound in model time: every level costs ≤ bisect+send.
	limit := int64(bounds.BADepth(0.2, 1<<16)) * (CostBisect + CostSend)
	if m16.Makespan > limit {
		t.Fatalf("makespan %d exceeds depth-derived limit %d", m16.Makespan, limit)
	}
	if m16.GlobalOps != 0 || m16.ManagerMessages != 0 {
		t.Fatal("BA must need no global communication and no manager traffic")
	}
	if m16.Messages != int64(m16.Parts-1) {
		t.Fatalf("messages=%d, want parts-1=%d", m16.Messages, m16.Parts-1)
	}
}

func TestRunBAMatchesCoreRatio(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 7)
	m, err := RunBA(p, topology.NewComplete(512), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BA(bisect.MustSynthetic(1, 0.1, 0.5, 7), 512, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ratio != res.Ratio {
		t.Fatalf("machine ratio %v != core ratio %v", m.Ratio, res.Ratio)
	}
	if m.Parts != len(res.Parts) {
		t.Fatalf("parts %d != %d", m.Parts, len(res.Parts))
	}
}

func TestRunBAHF(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 3)
	m, err := RunBAHF(p, topology.NewComplete(1024), 0.1, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BAHF(bisect.MustSynthetic(1, 0.1, 0.5, 3), 1024, 0.1, 1.0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ratio != res.Ratio {
		t.Fatalf("machine ratio %v != core ratio %v", m.Ratio, res.Ratio)
	}
	if m.Bisections != int64(res.Bisections) {
		t.Fatalf("bisections %d != %d", m.Bisections, res.Bisections)
	}
	// The sequential tail makes BA-HF slower than BA but it must stay
	// logarithmic for fixed α and κ.
	ba, err := RunBA(bisect.MustSynthetic(1, 0.1, 0.5, 3), topology.NewComplete(1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan < ba.Makespan {
		t.Fatalf("BA-HF makespan %d below BA's %d", m.Makespan, ba.Makespan)
	}
}

func TestRunBAHFLogarithmic(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 5)
	m12, err := RunBAHF(p, topology.NewComplete(1<<12), 0.2, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m17, err := RunBAHF(p, topology.NewComplete(1<<17), 0.2, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if growth := float64(m17.Makespan) / float64(m12.Makespan); growth > 3 {
		t.Fatalf("BA-HF makespan grew %vx — not logarithmic", growth)
	}
}

func TestRunPHFAllModesSamePartitionQuality(t *testing.T) {
	for _, mode := range []Phase1Mode{Phase1Oracle, Phase1Central, Phase1BAPrime} {
		m, err := RunPHF(bisect.MustSynthetic(1, 0.15, 0.5, 11), topology.NewComplete(512), 0.15, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		hf, err := core.HF(bisect.MustSynthetic(1, 0.15, 0.5, 11), 512, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Ratio != hf.Ratio {
			t.Fatalf("mode %v: ratio %v != HF ratio %v (Theorem 3 violated)", mode, m.Ratio, hf.Ratio)
		}
		if m.Parts != len(hf.Parts) {
			t.Fatalf("mode %v: parts %d != %d", mode, m.Parts, len(hf.Parts))
		}
		if m.Bisections != int64(hf.Bisections) {
			t.Fatalf("mode %v: bisections %d != %d", mode, m.Bisections, hf.Bisections)
		}
	}
}

func TestRunPHFOracleLogarithmic(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 13)
	m10, err := RunPHF(p, topology.NewComplete(1<<10), 0.2, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	m16, err := RunPHF(p, topology.NewComplete(1<<16), 0.2, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if growth := float64(m16.Makespan) / float64(m10.Makespan); growth > 3 {
		t.Fatalf("PHF/oracle makespan grew %vx — not logarithmic", growth)
	}
}

func TestRunPHFCentralContention(t *testing.T) {
	// The central manager serialises phase-1 acquisitions; with many
	// processors its makespan must exceed the oracle's noticeably, and its
	// manager traffic is two messages per phase-1 bisection.
	p := bisect.MustSynthetic(1, 0.2, 0.5, 17)
	oracle, err := RunPHF(p, topology.NewComplete(1<<14), 0.2, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	central, err := RunPHF(p, topology.NewComplete(1<<14), 0.2, Phase1Central, nil)
	if err != nil {
		t.Fatal(err)
	}
	if central.Makespan <= oracle.Makespan {
		t.Fatalf("central %d not slower than oracle %d", central.Makespan, oracle.Makespan)
	}
	if central.ManagerMessages == 0 {
		t.Fatal("central manager reported no traffic")
	}
	if oracle.ManagerMessages != 0 {
		t.Fatal("oracle charged manager traffic")
	}
}

func TestRunPHFBAPrimeAvoidsManagerTraffic(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 19)
	m, err := RunPHF(p, topology.NewComplete(1<<12), 0.2, Phase1BAPrime, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ManagerMessages != 0 {
		t.Fatalf("BA′ bootstrap charged %d manager messages", m.ManagerMessages)
	}
	central, err := RunPHF(p, topology.NewComplete(1<<12), 0.2, Phase1Central, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan >= central.Makespan {
		t.Fatalf("BA′ bootstrap (%d) not faster than central manager (%d)",
			m.Makespan, central.Makespan)
	}
}

func TestRunPHFPhase2IterationBound(t *testing.T) {
	alpha := 0.1
	m, err := RunPHF(bisect.MustSynthetic(1, alpha, 0.5, 23), topology.NewComplete(4096), alpha, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if limit := bounds.PHFPhase2Iterations(alpha) + 1; m.Phase2Iterations > limit {
		t.Fatalf("phase-2 iterations %d exceed bound %d", m.Phase2Iterations, limit)
	}
}

func TestRunnersErrors(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 1)
	if _, err := RunHF(nil, topology.NewComplete(4), nil); err == nil {
		t.Fatal("RunHF nil accepted")
	}
	if _, err := RunBA(p, &topology.Complete{}, nil); err == nil {
		t.Fatal("RunBA n=0 accepted")
	}
	if _, err := RunBAHF(p, topology.NewComplete(4), 0, 1, nil); err == nil {
		t.Fatal("RunBAHF α=0 accepted")
	}
	if _, err := RunBAHF(p, topology.NewComplete(4), 0.1, 0, nil); err == nil {
		t.Fatal("RunBAHF κ=0 accepted")
	}
	if _, err := RunPHF(p, topology.NewComplete(4), 0.8, Phase1Oracle, nil); err == nil {
		t.Fatal("RunPHF bad α accepted")
	}
	if _, err := RunPHF(p, topology.NewComplete(4), 0.1, Phase1Mode(99), nil); err == nil {
		t.Fatal("RunPHF unknown mode accepted")
	}
}

func TestPhase1ModeString(t *testing.T) {
	if Phase1Oracle.String() != "oracle" || Phase1Central.String() != "central" ||
		Phase1BAPrime.String() != "ba-prime" {
		t.Fatal("mode names wrong")
	}
	if Phase1Mode(42).String() == "" {
		t.Fatal("unknown mode has empty name")
	}
}

func TestTopologySensitivity(t *testing.T) {
	// PHF suffers on collective-hostile topologies; BA's slowdown stays
	// comparatively small thanks to its local sends and zero collectives.
	const n = 1024
	p := func() bisect.Problem { return bisect.MustSynthetic(1, 0.15, 0.5, 37) }
	baComplete, err := RunBA(p(), topology.NewComplete(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	baRing, err := RunBA(p(), topology.NewRing(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	phfComplete, err := RunPHF(p(), topology.NewComplete(n), 0.15, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	phfRing, err := RunPHF(p(), topology.NewRing(n), 0.15, Phase1Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	baSlow := float64(baRing.Makespan) / float64(baComplete.Makespan)
	phfSlow := float64(phfRing.Makespan) / float64(phfComplete.Makespan)
	if phfSlow <= baSlow {
		t.Fatalf("expected PHF to suffer more on a ring: PHF %vx vs BA %vx", phfSlow, baSlow)
	}
	// Partition quality is topology-independent.
	if phfRing.Ratio != phfComplete.Ratio || baRing.Ratio != baComplete.Ratio {
		t.Fatal("topology changed the computed partition")
	}
}

func TestTopologyRunnerErrors(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 1)
	if _, err := RunBA(nil, topology.NewComplete(4), nil); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := RunBA(p, nil, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := RunPHF(p, nil, 0.1, Phase1Oracle, nil); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := RunPHF(p, topology.NewComplete(4), 0.9, Phase1Oracle, nil); err == nil {
		t.Fatal("bad α accepted")
	}
}

func TestRunPHFMisdeclaredAlphaKeepsOvershootOnSender(t *testing.T) {
	// α = 0.5 declared for a problem that always splits 5:95: phase one's
	// threshold is too low and it produces more than N parts. With no free processor left,
	// each further part stays on its sender; nothing indexes past the
	// machine, traced or not, on any topology.
	for _, topo := range []topology.Topology{topology.NewComplete(4), topology.NewRing(4)} {
		for _, mode := range []Phase1Mode{Phase1Oracle, Phase1Central, Phase1BAPrime} {
			tr := new(Trace)
			m, err := RunPHF(bisect.MustFixed(1, 0.05), topo, 0.5, mode, tr)
			if err != nil {
				t.Fatal(err)
			}
			if m.Parts <= 4 {
				t.Fatalf("%s@%s: %d parts, want the overshoot past N = 4", m.Algorithm, topo.Name(), m.Parts)
			}
			for _, e := range tr.Events {
				if e.Proc < 0 || e.Proc >= 4 {
					t.Fatalf("%s@%s: event on processor %d", m.Algorithm, topo.Name(), e.Proc)
				}
			}
		}
	}
}
