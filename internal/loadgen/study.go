package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Options are the settings a study reads; each study ignores the rest.
type Options struct {
	// Targets are the lbserve base URLs the load study drives
	// round-robin; InProcess replaces them with an in-process server.
	Targets   []string
	InProcess bool
	RPS       int
	Duration  time.Duration
	Seed      uint64
	// Out is the human-readable report file ("" writes none).
	Out string
	// JSON is the sectioned BENCH_service.json: a study rewrites its own
	// section there, and the gate reads its baseline from it.
	JSON string
}

// Study is one lbload study.
type Study struct {
	// Out is the report file the study writes by default.
	Out string
	// marker, when set, installs the report as a marker-delimited block
	// at the end of Out instead of overwriting the file.
	marker string
	run    func(d *Driver, o Options) (outcome, error)
}

// outcome is what a study hands back for printing and recording.
type outcome struct {
	text    string
	section any // recorded in BENCH_service.json under the study's name
	pass    bool
}

// Studies is the study table, keyed by -study name.
var Studies = map[string]Study{
	"load":      {Out: "results/service_load.txt", run: runLoadStudy},
	"sweep":     {Out: "results/service_sweep.txt", run: runSweep},
	"slo":       {Out: "results/service_slo.txt", run: runSLO},
	"cluster":   {Out: "results/cluster.txt", run: runCluster},
	"rebalance": {Out: "results/dynamic.txt", marker: "X14", run: runRebalance},
	"gate":      {run: runGate},
}

// Names lists the study names, "a | b | …".
func Names() string {
	var names []string
	for name := range Studies {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// Execute runs the named study, prints its report, writes it to o.Out
// and records its section in o.JSON. pass is false when an acceptance
// criterion fails.
func (s Study) Execute(name string, o Options) (pass bool, err error) {
	res, err := s.run(NewDriver(), o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Print(res.text)
	switch {
	case o.Out == "":
	case s.marker != "":
		err = appendMarkedSection(o.Out, s.marker, res.text)
	default:
		err = save(o.Out, []byte(res.text), "")
	}
	if err != nil {
		return false, err
	}
	if o.JSON != "" && res.section != nil {
		if err := writeJSONSection(o.JSON, name, res.section); err != nil {
			return false, err
		}
	}
	return res.pass, nil
}

// ParseTargets splits a comma-separated target list, accepting bare
// host:port entries.
func ParseTargets(list string) []string {
	var out []string
	for _, t := range strings.Split(list, ",") {
		if t = strings.TrimSpace(t); t == "" {
			continue
		}
		if !strings.HasPrefix(t, "http://") && !strings.HasPrefix(t, "https://") {
			t = "http://" + t
		}
		out = append(out, t)
	}
	return out
}

// save writes data to path, creating parent directories, and reports it.
func save(path string, data []byte, what string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s%s\n", path, what)
	return nil
}

// writeJSONSection merges v into the sectioned JSON file at path under
// the given key, preserving the other studies' sections so each study
// can update the same trajectory file independently. Keys that name no
// study are dropped rather than carried along indefinitely.
func writeJSONSection(path, section string, v any) error {
	out := make(map[string]json.RawMessage)
	if data, err := os.ReadFile(path); err == nil {
		var existing map[string]json.RawMessage
		if json.Unmarshal(data, &existing) == nil {
			for k, raw := range existing {
				if _, ok := Studies[k]; ok {
					out[k] = raw
				}
			}
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	out[section] = raw
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return save(path, append(data, '\n'), fmt.Sprintf(" (section %q)", section))
}

// appendMarkedSection idempotently installs text as a marker-delimited
// block at the end of path, preserving everything outside the markers
// (results/dynamic.txt also carries the X6 dynamic-drift table).
func appendMarkedSection(path, name, text string) error {
	begin := fmt.Sprintf("=== %s (begin) ===\n", name)
	end := fmt.Sprintf("=== %s (end) ===\n", name)
	var keep string
	if data, err := os.ReadFile(path); err == nil {
		keep = string(data)
		if i := strings.Index(keep, begin); i >= 0 {
			rest := ""
			if j := strings.Index(keep[i:], end); j >= 0 {
				rest = keep[i+j+len(end):]
			}
			keep = keep[:i] + rest
		}
	}
	if keep = strings.TrimRight(keep, "\n"); keep != "" {
		keep += "\n\n"
	}
	return save(path, []byte(keep+begin+text+end), " (section "+name+")")
}

// passFail renders a verdict.
var passFail = map[bool]string{true: "PASS", false: "FAIL"}

// fmtNs renders nanoseconds at microsecond resolution.
func fmtNs(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }
