package loadgen

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"bisectlb/internal/obs"
	"bisectlb/internal/service"
)

// X14 shape: repetitions per cell after warmup, and the drift regime.
const (
	x14N          = 2048
	x14Seed       = 4242
	x14DriftMult  = 10.0 // drifted parts land at 10× the mean
	x14Warmup     = 4
	x14Reps       = 20
	x14SmallDrift = 8 // cells with ≤ this many drifted parts must beat fresh planning
)

// x14Cell is one drift magnitude of the study.
type x14Cell struct {
	DriftedParts int     `json:"drifted_parts"`
	DriftMult    float64 `json:"drift_mult"`
	Outcome      string  `json:"outcome"`
	Band         float64 `json:"band"`
	Dirty        int     `json:"dirty"`
	PriorRatio   float64 `json:"prior_ratio"`
	PatchedRatio float64 `json:"patched_ratio"`
	PatchMeanNs  float64 `json:"patch_mean_ns"`
	FreshMeanNs  float64 `json:"fresh_mean_ns"`
	Speedup      float64 `json:"speedup"`
}

// x14Study is the {rebalance} section of BENCH_service.json.
type x14Study struct {
	N     int       `json:"n"`
	Seed  uint64    `json:"seed"`
	Reps  int       `json:"reps"`
	Cells []x14Cell `json:"cells"`
	Pass  bool      `json:"pass"`
}

// x14Plan is the slice of a served plan the study reads back.
type x14Plan struct {
	Parts []struct {
		ID     uint64  `json:"id"`
		Weight float64 `json:"weight"`
		Procs  int     `json:"procs"`
	} `json:"parts"`
	Total     float64 `json:"total"`
	Ratio     float64 `json:"ratio"`
	Signature string  `json:"signature"`
	Rebalance *struct {
		Outcome  string  `json:"outcome"`
		Band     float64 `json:"band"`
		Dirty    int     `json:"dirty"`
		Oversize int     `json:"oversize"`
	} `json:"rebalance"`
}

// windowedMean returns the mean of a histogram's observations between
// two snapshots.
func windowedMean(before, after obs.Snapshot, name string) float64 {
	b, a := before.Histograms[name], after.Histograms[name]
	if a.Count <= b.Count {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
}

// x14Deltas builds the cell's drift vector: the k heaviest 1-processor
// parts pushed to mult× the mean, with the first factor perturbed in
// the 1e-9 digits by rep so every repetition misses the drift cache
// without changing the drift regime.
func x14Deltas(prior *x14Plan, k int, mult float64, rep int) string {
	mean := prior.Total / float64(x14N)
	var idx []int
	for i, pt := range prior.Parts {
		if pt.Procs == 1 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return prior.Parts[idx[a]].Weight > prior.Parts[idx[b]].Weight })
	deltas := make([]string, min(k, len(idx)))
	for i := range deltas {
		pt := prior.Parts[idx[i]]
		f := mult * mean / pt.Weight
		if i == 0 {
			f *= 1 + 1e-9*float64(rep+1)
		}
		deltas[i] = fmt.Sprintf(`{"id":%d,"factor":%g}`, pt.ID, f)
	}
	return "[" + strings.Join(deltas, ",") + "]"
}

func x14Body(seed uint64, extra string) string {
	return fmt.Sprintf(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":%d},"n":%d,"algorithm":"HF","alpha":0.1%s}`,
		seed, x14N, extra)
}

// x14Measure runs one drift cell on a fresh in-process server: a prior
// plan, warmup and timed patches of it, then fresh plans of the same
// size. It returns the cell with the last patched plan.
func (d *Driver) x14Measure(k int, mult float64) (x14Cell, *x14Plan, error) {
	srv, url, err := startServer(service.Config{CacheCapacity: 1024})
	if err != nil {
		return x14Cell{}, nil, err
	}
	defer shutdownServer(srv)
	var prior, patched x14Plan
	if err := d.postJSON(url, "/v1/balance", x14Body(x14Seed, ""), &prior); err != nil {
		return x14Cell{}, nil, fmt.Errorf("prior: %w", err)
	}
	var before obs.Snapshot
	for rep := 0; rep < x14Warmup+x14Reps; rep++ {
		if rep == x14Warmup {
			if before, err = d.fetchMetrics(url); err != nil {
				return x14Cell{}, nil, err
			}
		}
		extra := fmt.Sprintf(`,"prior_signature":%q,"deltas":%s`, prior.Signature, x14Deltas(&prior, k, mult, rep))
		if err := d.postJSON(url, "/v1/rebalance", x14Body(x14Seed, extra), &patched); err != nil {
			return x14Cell{}, nil, fmt.Errorf("rep %d: %w", rep, err)
		}
	}
	// Fresh-planning reference: same family and size, one unique seed
	// per repetition so every request computes.
	for rep := 0; rep < x14Reps; rep++ {
		if err := d.postJSON(url, "/v1/balance", x14Body(x14Seed+1000+uint64(k*x14Reps+rep), ""), nil); err != nil {
			return x14Cell{}, nil, fmt.Errorf("fresh rep %d: %w", rep, err)
		}
	}
	after, err := d.fetchMetrics(url)
	if err != nil {
		return x14Cell{}, nil, err
	}
	cell := x14Cell{
		DriftedParts: k,
		DriftMult:    mult,
		PriorRatio:   prior.Ratio,
		PatchedRatio: patched.Ratio,
		PatchMeanNs:  windowedMean(before, after, "service.rebalance.patch_ns"),
		FreshMeanNs:  windowedMean(before, after, "service.compute_ns"),
	}
	if cell.PatchMeanNs > 0 {
		cell.Speedup = cell.FreshMeanNs / cell.PatchMeanNs
	}
	return cell, &patched, nil
}

// runRebalance is experiment X14 (EXPERIMENTS.md): patched vs fresh
// planning as drift grows, one in-process server per drift cell, timed
// by the server-side planner histograms. pass is false when a request
// fails, an outcome lands outside its expected regime, a patched ratio
// escapes the band, or patching a small drift is not faster than fresh
// planning.
func runRebalance(d *Driver, _ Options) (outcome, error) {
	study := &x14Study{N: x14N, Seed: x14Seed, Reps: x14Reps, Pass: true}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lbload rebalance: "+format+"\n", args...)
		study.Pass = false
	}
	cells := []struct {
		k    int
		mult float64
	}{
		// k heaviest parts at 10× the mean spans noop → patched → the
		// regime where patching does more work than fresh planning; the
		// final cell concentrates nearly all drifted weight in one part,
		// crossing the full-replan threshold.
		{0, x14DriftMult}, {1, x14DriftMult}, {2, x14DriftMult}, {8, x14DriftMult},
		{32, x14DriftMult}, {128, x14DriftMult}, {512, x14DriftMult},
		{1, 1e6},
	}
	for _, c := range cells {
		k, mult := c.k, c.mult
		cell, patched, err := d.x14Measure(k, mult)
		if err != nil {
			fail("cell k=%d: %v", k, err)
			continue
		}
		if rb := patched.Rebalance; rb != nil {
			cell.Outcome, cell.Band, cell.Dirty = rb.Outcome, rb.Band, rb.Dirty
			if rb.Oversize == 0 && patched.Ratio > rb.Band*(1+1e-6) {
				fail("cell k=%d: patched ratio %g escapes band %g", k, patched.Ratio, rb.Band)
			}
		} else {
			fail("cell k=%d: response without a rebalance certificate", k)
		}
		if k == 0 && cell.Outcome != "noop" {
			fail("cell k=0: outcome %q, want noop", cell.Outcome)
		}
		if mult >= 1e5 && cell.Outcome != "full_replan" {
			fail("cell k=%d mult=%g: outcome %q, want full_replan", k, mult, cell.Outcome)
		}
		if mult == x14DriftMult && k >= 1 && k <= x14SmallDrift {
			if cell.Outcome != "patched" {
				fail("cell k=%d: outcome %q, want patched", k, cell.Outcome)
			}
			if cell.PatchMeanNs >= cell.FreshMeanNs {
				fail("cell k=%d: patch mean %.0fns not below fresh mean %.0fns", k, cell.PatchMeanNs, cell.FreshMeanNs)
			}
		}
		study.Cells = append(study.Cells, cell)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "X14 — incremental replanning: patched vs fresh as drift grows\n")
	fmt.Fprintf(&b, "uniform family, N=%d, HF, α=0.1, seed %d; k heaviest parts drifted to %g× the mean;\n",
		x14N, uint64(x14Seed), x14DriftMult)
	fmt.Fprintf(&b, "means over %d repetitions per cell after %d warmup (server-side planner timings)\n\n",
		x14Reps, x14Warmup)
	fmt.Fprintf(&b, "| drifted parts | outcome | band | patched ratio | patch mean | fresh mean | speedup |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	for _, c := range study.Cells {
		fmt.Fprintf(&b, "| %d | %s | %.2f | %.3f | %s | %s | %.1fx |\n",
			c.DriftedParts, c.Outcome, c.Band, c.PatchedRatio,
			fmtNs(int64(c.PatchMeanNs)), fmtNs(int64(c.FreshMeanNs)), c.Speedup)
	}
	if study.Pass {
		fmt.Fprintf(&b, "\nPASS: small drifts patch faster than fresh planning; ratios stay inside the band\n")
	} else {
		fmt.Fprintf(&b, "\nFAIL: see stderr\n")
	}
	return outcome{text: b.String(), section: study, pass: study.Pass}, nil
}
