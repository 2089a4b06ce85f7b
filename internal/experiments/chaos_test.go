package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestChaosStudySmall runs a shrunken X7 sweep end to end — one trial,
// two node counts, drop-free and lossy cells, one crash cell — and
// checks the study's own headline claim on its output: whenever a trial
// completes, the recovered ratio equals the fault-free ratio exactly
// (RatioVsClean == 1), because recovery re-executes deterministically.
func TestChaosStudySmall(t *testing.T) {
	cfg := ChaosStudy{
		Lo: 0.1, Hi: 0.5,
		N:         16,
		Ks:        []int{2},
		DropRates: []float64{0, 0.10},
		Crashes:   []int{0, 1},
		Trials:    1,
		Seed:      20260805,
		Timeout:   15 * time.Second,
	}
	rows, err := RunChaosStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	completedAny := false
	for _, r := range rows {
		if r.Completed > 0 {
			completedAny = true
			if math.Abs(r.RatioVsClean-1) > 1e-9 {
				t.Errorf("K=%d drop=%g crashes=%d: completed ratio %v != fault-free",
					r.K, r.DropRate, r.Crashes, r.RatioVsClean)
			}
		}
		if r.DropRate == 0 && r.Crashes == 0 {
			if r.Completed != r.Trials {
				t.Errorf("fault-free cell completed %d/%d", r.Completed, r.Trials)
			}
			if m := r.Metrics; m.Drops != 0 || m.Dups != 0 || m.Deaths != 0 || m.LeaseReissues != 0 {
				t.Errorf("fault-free cell shows injected faults: %+v", m)
			}
		}
		if r.Crashes > 0 && r.Completed > 0 && r.Metrics.Deaths == 0 {
			t.Errorf("crash cell recorded no deaths: %+v", r.Metrics)
		}
	}
	if !completedAny {
		t.Fatal("no cell completed a single trial")
	}

	var buf bytes.Buffer
	if err := RenderChaosStudy(&buf, cfg, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Chaos study (X7)", "drop", "crashes", "ratio/ff"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestChaosStudyRejectsEmptyConfig covers the validation path.
func TestChaosStudyRejectsEmptyConfig(t *testing.T) {
	if _, err := RunChaosStudy(ChaosStudy{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestDefaultChaosStudy pins the published sweep shape: the defaults are
// what `lbsim -exp chaos` runs, so a drive-by change here silently
// changes results/chaos.txt.
func TestDefaultChaosStudy(t *testing.T) {
	cfg := DefaultChaosStudy(600, 1999)
	if cfg.Trials != 600 || cfg.Seed != 1999 {
		t.Fatalf("trials/seed not threaded: %+v", cfg)
	}
	if len(cfg.Ks) == 0 || len(cfg.DropRates) == 0 || len(cfg.Crashes) == 0 {
		t.Fatalf("degenerate default sweep: %+v", cfg)
	}
	if cfg.DropRates[0] != 0 || cfg.Crashes[0] != 0 {
		t.Fatalf("default sweep lost its fault-free baseline cell: %+v", cfg)
	}
	tm := chaosTiming()
	if tm.Heartbeat <= 0 || tm.DeadAfter <= tm.Heartbeat || tm.LeaseExpiry <= tm.DeadAfter {
		t.Fatalf("chaos timing ordering broken: %+v", tm)
	}
}

// TestExecutorProbe runs a planner with workers and a registry attached
// and renders the metrics appendix.
func TestExecutorProbe(t *testing.T) {
	cfg := DefaultEndToEndStudy(1, 7)
	cfg.N = 64
	reg, err := RunExecutorProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderExecutorAppendix(&buf, cfg, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Metrics appendix") {
		t.Fatalf("appendix header missing:\n%s", buf.String())
	}
	// The probe must have recorded real planner activity, and BA and
	// BA-HF must have fanned out into subtree tasks.
	if !strings.Contains(buf.String(), "core.pplan.tasks") {
		t.Fatalf("appendix carries no fan-out metrics:\n%s", buf.String())
	}
}

// TestFtoa covers the CSV float rendering, NaN included.
func TestFtoa(t *testing.T) {
	if got := ftoa(math.NaN()); got != "nan" {
		t.Fatalf("ftoa(NaN) = %q", got)
	}
	if got := ftoa(1.5); got != "1.5" {
		t.Fatalf("ftoa(1.5) = %q", got)
	}
}
