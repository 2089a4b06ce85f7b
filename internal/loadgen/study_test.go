package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bisectlb/internal/service"
)

func TestWriteJSONSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "bench.json")
	if err := writeJSONSection(path, "load", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	// A legacy key and a known section land next to the load section.
	data, _ := os.ReadFile(path)
	var sections map[string]json.RawMessage
	json.Unmarshal(data, &sections)
	sections["legacy_flat_report"] = json.RawMessage(`{"x":1}`)
	sections["slo"] = json.RawMessage(`{"all_criteria_pass":true}`)
	data, _ = json.Marshal(sections)
	os.WriteFile(path, data, 0o644)

	if err := writeJSONSection(path, "cluster", map[string]bool{"pass": true}); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"load":    map[string]any{"a": 1.0},
		"slo":     map[string]any{"all_criteria_pass": true},
		"cluster": map[string]any{"pass": true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sections %v, want %v (known kept, unknown dropped)", got, want)
	}
}

func TestAppendMarkedSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dynamic.txt")
	os.WriteFile(path, []byte("X6 table\n\n=== X14 (begin) ===\nold\n=== X14 (end) ===\ntrailer\n"), 0o644)
	for i := 0; i < 2; i++ {
		if err := appendMarkedSection(path, "X14", "new\n"); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(path)
		want := "X6 table\n\ntrailer\n\n=== X14 (begin) ===\nnew\n=== X14 (end) ===\n"
		if string(got) != want {
			t.Fatalf("pass %d: got %q, want %q", i, got, want)
		}
	}
	fresh := filepath.Join(t.TempDir(), "new", "x.txt")
	if err := appendMarkedSection(fresh, "X", "body\n"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(fresh); string(got) != "=== X (begin) ===\nbody\n=== X (end) ===\n" {
		t.Fatalf("fresh file %q", got)
	}
}

func TestParseTargetsAndNames(t *testing.T) {
	got := ParseTargets(" localhost:1, http://a:2,,https://b:3 ")
	want := []string{"http://localhost:1", "http://a:2", "https://b:3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTargets = %v, want %v", got, want)
	}
	if n := Names(); n != "cluster | gate | load | rebalance | slo | sweep" {
		t.Fatalf("Names = %q", n)
	}
}

// TestStudies runs every study end to end at a small size and checks its
// report, its recorded section and the gate's verdicts. The studies'
// acceptance criteria depend on timing, so their verdicts are not
// asserted.
func TestStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every serving study against in-process servers")
	}
	defer func(n int) { overloadN = n }(overloadN)
	overloadN = 4096
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_service.json")
	run := func(name string, o Options) string {
		t.Helper()
		o.Out, o.JSON = filepath.Join(dir, name+".txt"), jsonPath
		if _, err := Studies[name].Execute(name, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text, err := os.ReadFile(o.Out)
		if err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
		return string(text)
	}
	small := Options{RPS: 100, Duration: 200 * time.Millisecond, Seed: 7}

	inproc := small
	inproc.InProcess = true
	if text := run("load", inproc); !strings.Contains(text, "lbload: 100 rps") {
		t.Errorf("load report %q", text)
	}
	if text := run("sweep", small); strings.Count(text, "\n| ") != 9 {
		t.Errorf("sweep report has %d table rows, want header + 8 cells:\n%s", strings.Count(text, "\n| "), text)
	}
	for name, heading := range map[string]string{
		"slo":       "X11 — SLO-driven",
		"cluster":   "X13 overall:",
		"rebalance": "=== X14 (begin) ===",
	} {
		if text := run(name, small); !strings.Contains(text, heading) {
			t.Errorf("%s report lacks %q:\n%s", name, heading, text)
		}
	}
	data, _ := os.ReadFile(jsonPath)
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"load", "sweep", "slo", "cluster", "rebalance"} {
		if len(sections[name]) == 0 {
			t.Errorf("section %q not recorded", name)
		}
	}

	// The gate against the fresh baseline, then against one whose cluster
	// section records a failure: warn-only unless BENCH_GATE_STRICT=1.
	gate := Options{JSON: jsonPath, Seed: 7}
	if _, err := Studies["gate"].Execute("gate", gate); err != nil {
		t.Fatal(err)
	}
	sections["cluster"] = json.RawMessage(`{"pass":false}`)
	sections["rebalance"] = json.RawMessage(`"unreadable"`)
	data, _ = json.Marshal(sections)
	os.WriteFile(jsonPath, data, 0o644)
	if pass, err := Studies["gate"].Execute("gate", gate); err != nil || !pass {
		t.Fatalf("warn-only gate: pass %v err %v, want a pass", pass, err)
	}
	t.Setenv("BENCH_GATE_STRICT", "1")
	if pass, err := Studies["gate"].Execute("gate", gate); err != nil || pass {
		t.Fatalf("strict gate: pass %v err %v, want a failure", pass, err)
	}
	os.WriteFile(jsonPath, []byte(`{"slo":{}}`), 0o644)
	if _, err := Studies["gate"].Execute("gate", gate); err == nil {
		t.Fatal("gate without a load section: want an error")
	}
}

// TestLoadAgainstTargets drives a two-node fleet whose first member is
// already dead: the preflight tolerates it and failover serves around it.
func TestLoadAgainstTargets(t *testing.T) {
	srv, url, err := startServer(service.Config{CacheCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(srv)
	rep, err := NewDriver().runLoad([]string{deadURL(), url}, 200, 100*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 20 || rep.OK != 20 || rep.Failed != 0 || rep.Cluster == nil || rep.Cluster.MetricsUnreachable != 1 {
		t.Fatalf("report %+v: want 20 served, the dead target counted unreachable", rep)
	}
	if _, err := NewDriver().runLoad([]string{deadURL()}, 200, 100*time.Millisecond, 3); err == nil {
		t.Fatal("no reachable target: want an error")
	}
	if _, err := NewDriver().runLoad([]string{url}, 0, time.Second, 3); err == nil {
		t.Fatal("rps 0: want an error")
	}
}
