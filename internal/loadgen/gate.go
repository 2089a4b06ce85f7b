package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"bisectlb/internal/service"
)

// gateThresholds: fail when fresh goodput falls below this fraction of
// the baseline, or fresh p99 exceeds this multiple of the baseline.
const (
	gateMinRPSFrac = 0.5
	gateMaxP99Mult = 3.0
)

// studySections are the study sections the gate requires, when
// recorded, to record a passing run.
var studySections = []struct {
	name   string
	passed func(raw json.RawMessage) (bool, error)
}{
	{"slo", passed(func(s *sloStudy) bool { return s.AllCriteriaPass })},
	{"cluster", passed(func(s *x13Study) bool { return s.Pass })},
	{"rebalance", passed(func(s *x14Study) bool { return s.Pass })},
}

// passed decodes a section into its study's JSON shape and reads its
// verdict.
func passed[T any](verdict func(*T) bool) func(json.RawMessage) (bool, error) {
	return func(raw json.RawMessage) (bool, error) {
		var s T
		err := json.Unmarshal(raw, &s)
		return err == nil && verdict(&s), err
	}
}

// runGate is the serving-perf gate: it repeats the load section's shape
// of the checked-in trajectory file against a fresh in-process server,
// compares, and requires every recorded study section to record a
// passing run. CI boxes are noisy, so the gate is warn-only with
// generous thresholds; BENCH_GATE_STRICT=1 makes a violation fail.
func runGate(d *Driver, o Options) (outcome, error) {
	data, err := os.ReadFile(o.JSON)
	if err != nil {
		return outcome{}, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		return outcome{}, fmt.Errorf("parsing %s: %w", o.JSON, err)
	}
	var base report
	if raw, ok := sections["load"]; !ok || json.Unmarshal(raw, &base) != nil || base.TargetRPS == 0 || base.Requests == 0 {
		return outcome{}, fmt.Errorf("%s has no usable load section", o.JSON)
	}
	fresh, err := d.loadInProcess(service.Config{CacheCapacity: 1024}, base.TargetRPS,
		time.Duration(base.DurationSec*float64(time.Second)), o.Seed)
	if err != nil {
		return outcome{}, err
	}

	rpsFrac := ratio(fresh.AchievedRPS, base.AchievedRPS)
	p99Mult := ratio(float64(fresh.Latency.P99), float64(base.Latency.P99))
	var b strings.Builder
	fmt.Fprintf(&b, "bench gate: baseline %s (%d rps, %.0fs)\n", o.JSON, base.TargetRPS, base.DurationSec)
	fmt.Fprintf(&b, "  goodput  fresh %.1f rps vs baseline %.1f rps (%.0f%%, floor %.0f%%)\n",
		fresh.AchievedRPS, base.AchievedRPS, 100*rpsFrac, 100*gateMinRPSFrac)
	fmt.Fprintf(&b, "  p99      fresh %s vs baseline %s (%.2fx, ceiling %.1fx)\n",
		fmtNs(fresh.Latency.P99), fmtNs(base.Latency.P99), p99Mult, gateMaxP99Mult)
	violated := rpsFrac < gateMinRPSFrac || p99Mult > gateMaxP99Mult

	for _, s := range studySections {
		raw, ok := sections[s.name]
		if !ok {
			continue
		}
		pass, err := s.passed(raw)
		switch {
		case err != nil:
			fmt.Fprintf(&b, "bench gate: %s section unreadable (%v)\n", s.name, err)
		case !pass:
			fmt.Fprintf(&b, "bench gate: %s section records a FAILING run — regenerate with `make sweep-%s`\n", s.name, s.name)
		default:
			fmt.Fprintf(&b, "bench gate: %s section records a passing run\n", s.name)
			continue
		}
		violated = true
	}

	switch {
	case !violated:
		fmt.Fprintln(&b, "bench gate: OK — fresh run within the noise envelope of the baseline")
	case os.Getenv("BENCH_GATE_STRICT") == "1":
		fmt.Fprintln(&b, "bench gate: FAIL — fresh run regressed past the envelope (BENCH_GATE_STRICT=1)")
		return outcome{text: b.String()}, nil
	default:
		fmt.Fprintln(&b, "bench gate: WARN — fresh run outside the envelope; not failing (set BENCH_GATE_STRICT=1 to enforce)")
	}
	return outcome{text: b.String(), pass: true}, nil
}
