package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestUnknownExperimentExitsTwo re-executes the test binary as lbsim with
// a misspelled -exp and checks the contract of the early validation: exit
// code 2, a diagnostic naming the bad value, and no study output — the
// typo is rejected before any sweep starts.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	if os.Getenv("LBSIM_RUN_MAIN") == "1" {
		os.Args = []string{"lbsim", "-exp", "kapa"} // typo for "kappa"
		main()
		return
	}
	start := time.Now()
	cmd := exec.Command(os.Args[0], "-test.run", "TestUnknownExperimentExitsTwo")
	cmd.Env = append(os.Environ(), "LBSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v (output %q)", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2 (output %q)", code, out)
	}
	if !strings.Contains(string(out), `unknown experiment "kapa"`) {
		t.Fatalf("diagnostic missing from output %q", out)
	}
	if strings.Contains(string(out), "study") {
		t.Fatalf("a study ran before validation: %q", out)
	}
	// The default trials value would keep a sweep busy for minutes; a
	// rejected typo must return essentially immediately.
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("validation took %v — work ran before the exit", el)
	}
}

// lbsim runs the command in-process and returns its exit code, stdout
// and stderr.
func lbsim(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTreeIsDOT checks that -exp tree prints one Graphviz digraph of the
// recorded bisection tree for every algorithm: 2n−1 labelled nodes, two
// edges per internal node, every edge between declared nodes.
func TestTreeIsDOT(t *testing.T) {
	const n = 8
	for _, alg := range []string{"hf", "ba", "bahf", "phf"} {
		code, out, errOut := lbsim("-exp", "tree", "-n", "8", "-alg", alg)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", alg, code, errOut)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if lines[0] != "digraph bisection {" || lines[len(lines)-1] != "}" {
			t.Fatalf("%s: not a digraph:\n%s", alg, out)
		}
		nodes := map[string]bool{}
		var edges [][2]string
		for _, l := range lines[1 : len(lines)-1] {
			l = strings.TrimSuffix(strings.TrimSpace(l), ";")
			switch {
			case strings.HasPrefix(l, "node "):
			case strings.Contains(l, " -> "):
				from, to, _ := strings.Cut(l, " -> ")
				edges = append(edges, [2]string{from, to})
			case strings.Contains(l, " [label="):
				id, _, _ := strings.Cut(l, " ")
				nodes[id] = true
			default:
				t.Fatalf("%s: unexpected DOT line %q", alg, l)
			}
		}
		if len(nodes) != 2*n-1 || len(edges) != 2*(n-1) {
			t.Fatalf("%s: %d nodes, %d edges; want %d and %d", alg, len(nodes), len(edges), 2*n-1, 2*(n-1))
		}
		for _, e := range edges {
			if !nodes[e[0]] || !nodes[e[1]] {
				t.Fatalf("%s: edge %v between undeclared nodes", alg, e)
			}
		}
	}
}

// TestTraceIsGantt checks that -exp trace draws the Gantt chart of both
// traced algorithms byte for byte as recorded in testdata/trace_<alg>.txt
// (one row per processor).
func TestTraceIsGantt(t *testing.T) {
	for _, alg := range []string{"ba", "phf"} {
		code, out, errOut := lbsim("-exp", "trace", "-n", "8", "-alg", alg)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", alg, code, errOut)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "trace_"+alg+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Fatalf("%s: output differs from testdata:\n%s", alg, out)
		}
	}
}

// TestFoldedStudies runs the folded table1 and machine modes at a tiny
// size, the CSV output file included, and the usage errors.
func TestFoldedStudies(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "t1.csv")
	code, out, errOut := lbsim("-exp", "table1", "-trials", "2", "-maxlog", "6", "-out", csv)
	if code != 0 || !strings.HasSuffix(out, "\n\nCSV written to "+csv+"\n") {
		t.Fatalf("table1: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if data, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(data), "n,log2n,trials,") {
		t.Fatalf("table1 CSV: %v %q", err, data)
	}
	code, out, _ = lbsim("-exp", "machine", "-trials", "1", "-maxlog", "5", "-n", "16")
	if code != 0 || !strings.Contains(out, "Single-run detail at N = 16") || strings.Count(out, "makespan=") != 6 {
		t.Fatalf("machine: exit %d:\n%s", code, out)
	}
	for _, args := range [][]string{
		{"-exp", "all", "-out", csv}, // -out names one file
		{"-bogus"},
	} {
		if code, _, _ := lbsim(args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, _ := lbsim("-exp", "trace", "-alg", "hf"); code != 1 {
		t.Fatalf("trace -alg hf: exit %d, want 1", code)
	}
}
