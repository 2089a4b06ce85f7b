// Package experiments regenerates the paper's evaluation section: Table 1,
// Figure 5 and the textual studies of Section 4 (κ influence, variance
// behaviour, non-power-of-two processor counts), plus the machine-model
// study backing the running-time and communication claims of Section 3.
// See DESIGN.md §6 for the exhibit-to-module index and EXPERIMENTS.md for
// recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
	"bisectlb/internal/stats"
	"bisectlb/internal/xrand"
)

// TripleConfig parameterises the BA / BA-HF / HF comparison that underlies
// Table 1 and Figure 5: α̂ ~ U[Lo, Hi] i.i.d. per bisection, κ the BA-HF
// threshold parameter, Trials repetitions per processor count.
type TripleConfig struct {
	Lo, Hi float64
	Kappa  float64
	Trials int
	Seed   uint64
	Ns     []int
	// ScaleTrials reduces the trial count proportionally for processor
	// counts above 2^14 so that full sweeps to 2^20 stay tractable; the
	// effective count never drops below 20. The paper used a flat 1000
	// trials; pass ScaleTrials=false and Trials=1000 to match exactly.
	ScaleTrials bool
}

// Validate checks the configuration.
func (c TripleConfig) Validate() error {
	if !(c.Lo > 0) || c.Hi < c.Lo || c.Hi > 0.5 {
		return fmt.Errorf("experiments: invalid α̂ interval [%v, %v]", c.Lo, c.Hi)
	}
	if err := bounds.ValidateKappa(c.Kappa); err != nil {
		return err
	}
	if c.Trials < 1 {
		return fmt.Errorf("experiments: trials %d must be ≥ 1", c.Trials)
	}
	if len(c.Ns) == 0 {
		return fmt.Errorf("experiments: no processor counts")
	}
	for _, n := range c.Ns {
		if n < 1 {
			return fmt.Errorf("experiments: invalid processor count %d", n)
		}
	}
	return nil
}

// EffectiveTrials returns the trial count used for n processors.
func (c TripleConfig) EffectiveTrials(n int) int {
	if !c.ScaleTrials || n <= 1<<14 {
		return c.Trials
	}
	t := c.Trials * (1 << 14) / n
	if t < 20 {
		t = 20
	}
	if t > c.Trials {
		t = c.Trials
	}
	return t
}

// PowersOfTwo returns 2^loMin … 2^loMax, the paper's processor grid
// ("N = 2^k, k ∈ {5, 6, …, 20}").
func PowersOfTwo(loMin, loMax int) []int {
	var out []int
	for k := loMin; k <= loMax; k++ {
		out = append(out, 1<<k)
	}
	return out
}

// AlgResult aggregates one algorithm's observed ratios at one N.
type AlgResult struct {
	// UB is the worst-case upper bound on the ratio for the class
	// (α = Lo) per the reconstructed theorems.
	UB float64
	// Stats summarises the observed ratios over the trials.
	Stats stats.Summary
}

// TripleRow is one processor count's results for the three algorithms.
type TripleRow struct {
	N      int
	Trials int
	BA     AlgResult
	BAHF   AlgResult
	HF     AlgResult
}

// RunTriple performs the core simulation experiment: for every processor
// count, EffectiveTrials independent instances are generated and each is
// partitioned by BA, BA-HF and HF on the *same* bisection stream (the
// three algorithms see identical α̂ draws for identical nodes, as in the
// paper's matched-trial design). Observed ratios are aggregated and paired
// with the worst-case bounds. Every trial plans on one reused Planner over
// the synthetic kernel.
func RunTriple(cfg TripleConfig) ([]TripleRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := make([]TripleRow, 0, len(cfg.Ns))
	seedGen := xrand.New(cfg.Seed)
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: cfg.Lo, Hi: cfg.Hi}
	var pl core.Planner
	var plan core.Plan
	for _, n := range cfg.Ns {
		trials := cfg.EffectiveTrials(n)
		sBA := stats.NewSample(trials)
		sBAHF := stats.NewSample(trials)
		sHF := stats.NewSample(trials)
		for trial := 0; trial < trials; trial++ {
			root := bisect.SyntheticFlatRoot(1, seedGen.Uint64())
			if err := pl.BAInto(&plan, k, root, n); err != nil {
				return nil, err
			}
			sBA.Add(plan.Ratio)
			if err := pl.BAHFInto(&plan, k, root, n, cfg.Lo, cfg.Kappa); err != nil {
				return nil, err
			}
			sBAHF.Add(plan.Ratio)
			if err := pl.HFInto(&plan, k, root, n); err != nil {
				return nil, err
			}
			sHF.Add(plan.Ratio)
		}
		ub, err := tripleBounds(cfg, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TripleRow{
			N:      n,
			Trials: trials,
			BA:     AlgResult{UB: ub[0], Stats: sBA.Summarize()},
			BAHF:   AlgResult{UB: ub[1], Stats: sBAHF.Summarize()},
			HF:     AlgResult{UB: ub[2], Stats: sHF.Summarize()},
		})
	}
	return rows, nil
}

// tripleBounds returns the worst-case bounds RunTriple pairs with the
// observed ratios at n processors: BA's, BA-HF's and HF's at α = cfg.Lo.
func tripleBounds(cfg TripleConfig, n int) (ub [3]float64, err error) {
	for i, alg := range [...]string{"BA", "BA-HF", "HF"} {
		if ub[i], err = bounds.Guarantee(alg, cfg.Lo, cfg.Kappa, n); err != nil {
			return ub, err
		}
	}
	return ub, nil
}
