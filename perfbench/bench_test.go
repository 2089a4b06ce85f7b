package main

import (
	"math"
	"testing"
)

// TestPlanRatioGeomeanRepeats checks that plan_ratio_geomean, the
// paper's quality measure, is bit-identical across two runs of a
// workload with the same seed, whatever the runs' timing.
func TestPlanRatioGeomeanRepeats(t *testing.T) {
	for _, name := range []string{"serve-cold", "plan-large"} {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 7, seconds: 0.5}
			a, b := geomeanOf(t, o), geomeanOf(t, o)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("plan_ratio_geomean %v then %v for one seed", a, b)
			}
		})
	}
}

func geomeanOf(t *testing.T, o options) float64 {
	t.Helper()
	res, err := workloads[o.workload](o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("run not correct: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return res.Metrics["plan_ratio_geomean"].Value
}
