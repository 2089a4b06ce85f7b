package machine

import (
	"strings"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/core"
	"bisectlb/internal/topology"
)

// checkTraceMatchesRun runs one variant with and without a trace and
// checks that recording changes nothing and that the events account for
// the metrics: bisection time, one send and one receive per message, one
// collective block per processor per global operation, all within the
// makespan on the machine's processors.
func checkTraceMatchesRun(t *testing.T, name string, run func(tr *Trace) (*Metrics, error)) {
	t.Helper()
	plain, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := new(Trace)
	m, err := run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if *m != *plain {
		t.Fatalf("%s: traced metrics differ: %+v vs %+v", name, m, plain)
	}
	if tr.N != m.N || tr.Makespan != m.Makespan {
		t.Fatalf("%s: trace N/makespan %d/%d, metrics %d/%d", name, tr.N, tr.Makespan, m.N, m.Makespan)
	}
	var bis, snd, rcv, coll int64
	for _, e := range tr.Events {
		if e.Proc < 0 || e.Proc >= tr.N || e.Start < 0 || e.Start+e.Duration > tr.Makespan {
			t.Fatalf("%s: event %+v outside %d processors × makespan %d", name, e, tr.N, tr.Makespan)
		}
		switch e.Action {
		case ActBisect:
			bis += e.Duration
		case ActSend:
			snd++
		case ActRecv:
			rcv++
		case ActCollective:
			coll++
		}
	}
	if bis != m.Bisections*CostBisect || snd != m.Messages || rcv != m.Messages || coll != m.GlobalOps*int64(m.N) {
		t.Fatalf("%s: events bis=%d snd=%d rcv=%d coll=%d vs metrics %+v", name, bis, snd, rcv, coll, m)
	}
}

func TestRunBATraceMatchesRunBA(t *testing.T) {
	for _, topo := range []topology.Topology{topology.NewComplete(256), topology.NewRing(256)} {
		p := func() bisect.Problem { return bisect.MustSynthetic(1, 0.1, 0.5, 21) }
		checkTraceMatchesRun(t, "HF@"+topo.Name(), func(tr *Trace) (*Metrics, error) { return RunHF(p(), topo, tr) })
		checkTraceMatchesRun(t, "BA@"+topo.Name(), func(tr *Trace) (*Metrics, error) { return RunBA(p(), topo, tr) })
		checkTraceMatchesRun(t, "BA-HF@"+topo.Name(), func(tr *Trace) (*Metrics, error) {
			return RunBAHF(p(), topo, 0.1, 1, tr)
		})
	}
}

func TestRunBATraceNoOverlapPerProcessor(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.15, 0.5, 5)
	tr := baTrace(t, p, 128)
	// Per processor and per action kind, busy intervals must not overlap:
	// the compute unit bisects one problem at a time and the (asynchronous)
	// send unit transmits one subproblem at a time. A send may overlap the
	// *next* bisection — the model offloads transmissions.
	type key struct {
		proc int
		act  Action
	}
	type span struct{ s, e int64 }
	byKey := map[key][]span{}
	for _, ev := range tr.Events {
		if ev.Duration == 0 {
			continue
		}
		k := key{ev.Proc, ev.Action}
		byKey[k] = append(byKey[k], span{ev.Start, ev.Start + ev.Duration})
	}
	for k, spans := range byKey {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.s < b.e && b.s < a.e {
					t.Fatalf("processor %d action %c has overlapping intervals [%d,%d) and [%d,%d)",
						k.proc, k.act, a.s, a.e, b.s, b.e)
				}
			}
		}
	}
}

func TestRunPHFOracleTraceConsistent(t *testing.T) {
	hf, err := core.HF(bisect.MustSynthetic(1, 0.15, 0.5, 9), 128, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []topology.Topology{topology.NewComplete(128), topology.NewMesh2D(128)} {
		for _, mode := range []Phase1Mode{Phase1Oracle, Phase1Central, Phase1BAPrime} {
			run := func(tr *Trace) (*Metrics, error) {
				return RunPHF(bisect.MustSynthetic(1, 0.15, 0.5, 9), topo, 0.15, mode, tr)
			}
			checkTraceMatchesRun(t, "PHF/"+mode.String()+"@"+topo.Name(), run)
			if m, _ := run(nil); m.Ratio != hf.Ratio {
				t.Fatalf("PHF/%s@%s ratio differs from HF (Theorem 3)", mode, topo.Name())
			}
		}
	}
}

// baTrace simulates BA on the idealised machine with a trace.
func baTrace(t *testing.T, p bisect.Problem, n int) *Trace {
	t.Helper()
	tr := new(Trace)
	if _, err := RunBA(p, topology.NewComplete(n), tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceUtilization(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 3)
	tr := baTrace(t, p, 64)
	u := tr.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0, 1]", u)
	}
	busy := tr.BusyTime()
	if len(busy) != 64 {
		t.Fatalf("busy slots = %d", len(busy))
	}
	if busy[0] == 0 {
		t.Fatal("processor 1 recorded no work despite holding the root")
	}
}

func TestRenderGantt(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 7)
	tr := baTrace(t, p, 16)
	var b strings.Builder
	if err := RenderGantt(&b, tr, 16); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"Gantt", "P1", "B", "utilization"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("gantt missing %q:\n%s", frag, out)
		}
	}
	// Every processor row appears.
	if strings.Count(out, "\nP") != 16 {
		t.Fatalf("expected 16 processor rows:\n%s", out)
	}
}

func TestRenderGanttTruncation(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.2, 0.5, 7)
	tr := baTrace(t, p, 256)
	var b strings.Builder
	if err := RenderGantt(&b, tr, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "further processors not shown") {
		t.Fatal("truncation note missing")
	}
	if strings.Count(b.String(), "\nP") != 8 {
		t.Fatal("row cap not applied")
	}
}

func TestRenderGanttScalesLongRuns(t *testing.T) {
	p := bisect.MustSynthetic(1, 0.1, 0.5, 11)
	tr := new(Trace)
	if _, err := RunPHF(p, topology.NewComplete(1<<12), 0.1, Phase1Oracle, tr); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderGantt(&b, tr, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "column = ") {
		t.Fatal("scale note missing")
	}
	// No line may exceed ~140 characters (120 columns + prefix).
	for _, line := range strings.Split(b.String(), "\n") {
		if len(line) > 140 {
			t.Fatalf("line too long (%d chars)", len(line))
		}
	}
}

func TestRenderGanttEmptyTrace(t *testing.T) {
	var b strings.Builder
	if err := RenderGantt(&b, nil, 8); err == nil {
		t.Fatal("nil trace accepted")
	}
	if err := RenderGantt(&b, &Trace{}, 8); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRenderGanttShowsArrivalAtWorkStart(t *testing.T) {
	// A subproblem arriving at the instant a collective starts on its
	// processor keeps its receive marker, whichever event comes first.
	tr := &Trace{N: 1, Makespan: 5, Events: []TraceEvent{
		{Proc: 0, Start: 2, Action: ActRecv},
		{Proc: 0, Start: 2, Duration: 3, Action: ActCollective},
	}}
	var b strings.Builder
	if err := RenderGantt(&b, tr, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "P1     |..vGG.\n") {
		t.Fatalf("arrival marker lost:\n%s", b.String())
	}
}
