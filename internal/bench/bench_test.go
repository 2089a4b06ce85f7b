package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// smokeSuite runs the harness once with a minimal time budget (one
// iteration per cell) and shares the result: the N=2^20 scale cells
// make even a single-iteration grid pass cost seconds, so the tests
// that only inspect the suite's shape reuse one run.
var smokeSuite = struct {
	once sync.Once
	s    *Suite
	err  error
}{}

func runSmokeSuite(t *testing.T) *Suite {
	t.Helper()
	smokeSuite.once.Do(func() {
		smokeSuite.s, smokeSuite.err = RunCore(time.Nanosecond)
	})
	if smokeSuite.err != nil {
		t.Fatal(smokeSuite.err)
	}
	return smokeSuite.s
}

// TestRunCoreCoversGrid runs the harness with a minimal time budget (one
// iteration per cell) and checks every grid cell is present exactly once
// with sane values — this is what makes the benchmark suite double as a
// test in CI.
func TestRunCoreCoversGrid(t *testing.T) {
	s := runSmokeSuite(t)
	want := len(Algorithms)*len(Alphas)*len(Ns) + len(ScaleCells())
	if len(s.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(s.Cells), want)
	}
	seen := map[string]bool{}
	for _, m := range s.Cells {
		idKey := fmt.Sprintf("%s|%s|a%g|n%d", m.Algorithm, m.Mode, m.Alpha, m.N)
		if seen[idKey] {
			t.Fatalf("duplicate cell %s", idKey)
		}
		seen[idKey] = true
		if m.Iterations < 1 {
			t.Fatalf("%s: zero iterations", idKey)
		}
		if m.NsPerOp <= 0 {
			t.Fatalf("%s: non-positive ns/op %v", idKey, m.NsPerOp)
		}
		if m.Parts < 1 || m.Parts > m.N {
			t.Fatalf("%s: %d parts for N=%d", idKey, m.Parts, m.N)
		}
		if m.Ratio < 1 {
			t.Fatalf("%s: ratio %v < 1", idKey, m.Ratio)
		}
		if (m.Mode == ModePar) != (m.Workers > 0) {
			t.Fatalf("%s: workers %d inconsistent with mode %q", idKey, m.Workers, m.Mode)
		}
	}
	// Every seq/par pair must describe the identical plan: same parts
	// count, same ratio — the modes trade constants, never output.
	for _, sc := range ScaleCells() {
		if sc.Mode == ModeSeq {
			continue
		}
		var seq, alt *Measurement
		for i := range s.Cells {
			m := &s.Cells[i]
			if m.Algorithm != sc.Algorithm || m.N != sc.N || m.Alpha != ScaleAlpha {
				continue
			}
			switch m.Mode {
			case ModeSeq:
				seq = m
			case sc.Mode:
				alt = m
			}
		}
		if seq == nil || alt == nil {
			t.Fatalf("scale pair %s/%s N=%d incomplete", sc.Algorithm, sc.Mode, sc.N)
		}
		if seq.Parts != alt.Parts || seq.Ratio != alt.Ratio {
			t.Fatalf("%s N=%d: %s plan (%d parts, ratio %v) diverged from seq (%d parts, ratio %v)",
				sc.Algorithm, sc.N, sc.Mode, alt.Parts, alt.Ratio, seq.Parts, seq.Ratio)
		}
	}
	if s.Schema != SchemaID {
		t.Fatalf("schema %q", s.Schema)
	}
	if s.MaxProcs < 1 {
		t.Fatalf("maxprocs %d", s.MaxProcs)
	}
}

// TestRunParallelSweep smoke-runs the X12 speedup study at a tiny
// budget and small worker set, checking shape and baseline wiring.
func TestRunParallelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep plans N=2^20 instances")
	}
	s, err := RunParallelSweep(time.Nanosecond, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(s.Cells))
	}
	if s.SeqNsPerOp <= 0 {
		t.Fatalf("sequential baseline %v", s.SeqNsPerOp)
	}
	if s.Cells[0].Workers != 1 || s.Cells[0].Speedup != 1 {
		t.Fatalf("workers=1 cell %+v must be the speedup base", s.Cells[0])
	}
	if s.Cells[1].Speedup <= 0 {
		t.Fatalf("speedup %v", s.Cells[1].Speedup)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workers") {
		t.Fatalf("sweep table missing header:\n%s", buf.String())
	}
	if _, err := RunParallelSweep(time.Nanosecond, []int{0}); err == nil {
		t.Fatal("worker count 0 accepted")
	}
}

// TestSuiteRoundTrips pins the JSON schema: encode → decode preserves
// every cell, and the text table mentions every algorithm.
func TestSuiteRoundTrips(t *testing.T) {
	s := runSmokeSuite(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Suite
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(s.Cells) || back.Schema != s.Schema {
		t.Fatalf("round trip lost data: %d cells, schema %q", len(back.Cells), back.Schema)
	}
	buf.Reset()
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if !strings.Contains(buf.String(), alg) {
			t.Fatalf("text table missing %s:\n%s", alg, buf.String())
		}
	}
}

func TestRunCellRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := runCell("nope", ModeSeq, 0.1, 8, time.Nanosecond); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := runCell("HF", "warp", 0.1, 8, time.Nanosecond); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := runCell("HF", ModePar, 0.1, 8, time.Nanosecond); err == nil {
		t.Fatal("HF accepted in par mode (no bit-identical parallel HF exists)")
	}
}

// failAfter is an io.Writer that succeeds for a fixed number of writes
// and then errors, letting the tests walk a failure across every write
// boundary of the renderers.
type failAfter struct{ writes int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.writes <= 0 {
		return 0, errors.New("sink full")
	}
	w.writes--
	return len(p), nil
}

// TestRenderersPropagateWriterErrors moves the failure point through
// every write the text/JSON renderers perform: each position must
// surface the error, and once past the last write they must succeed.
func TestRenderersPropagateWriterErrors(t *testing.T) {
	sw := &Sweep{GoVersion: "g", GOOS: "l", GOARCH: "a", MaxProcs: 1, Algorithm: "BA-HF",
		Alpha: 0.3, Kappa: 1, N: 8, BenchtimeNs: 1, SeqNsPerOp: 100,
		Cells: []SweepCell{{Workers: 1, Iterations: 1, NsPerOp: 100, Speedup: 1}}}
	su := &Suite{Schema: SchemaID, GoVersion: "g", GOOS: "l", GOARCH: "a", MaxProcs: 1,
		BenchtimeNs: 1, Cells: []Measurement{{Algorithm: "HF", Mode: ModeSeq, Alpha: 0.1,
			N: 8, Iterations: 1, NsPerOp: 1, Parts: 8, Ratio: 1}}}
	renderers := map[string]func(w *failAfter) error{
		"sweep-text": func(w *failAfter) error { return sw.WriteText(w) },
		"suite-text": func(w *failAfter) error { return su.WriteText(w) },
		"suite-json": func(w *failAfter) error { return su.WriteJSON(w) },
	}
	for name, render := range renderers {
		ok := false
		for i := 0; i < 100; i++ {
			if err := render(&failAfter{writes: i}); err == nil {
				if i == 0 {
					t.Fatalf("%s: writer that always fails was not reported", name)
				}
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: renderer never completed within 100 writes", name)
		}
	}
}

func TestModeOrderUnknownSortsLast(t *testing.T) {
	if got := modeOrder("???"); got <= modeOrder(ModePar) {
		t.Fatalf("unknown mode sorts at %d, before par at %d", got, modeOrder(ModePar))
	}
}
