package experiments

import (
	"strings"
	"testing"
)

func smallTriple() TripleConfig {
	return TripleConfig{
		Lo: 0.1, Hi: 0.5, Kappa: 1.0,
		Trials: 40, Seed: 1,
		Ns: []int{32, 128, 512},
	}
}

func TestTripleConfigValidate(t *testing.T) {
	bad := []TripleConfig{
		{Lo: 0, Hi: 0.5, Kappa: 1, Trials: 1, Ns: []int{2}},
		{Lo: 0.3, Hi: 0.2, Kappa: 1, Trials: 1, Ns: []int{2}},
		{Lo: 0.1, Hi: 0.6, Kappa: 1, Trials: 1, Ns: []int{2}},
		{Lo: 0.1, Hi: 0.5, Kappa: 0, Trials: 1, Ns: []int{2}},
		{Lo: 0.1, Hi: 0.5, Kappa: 1, Trials: 0, Ns: []int{2}},
		{Lo: 0.1, Hi: 0.5, Kappa: 1, Trials: 1, Ns: nil},
		{Lo: 0.1, Hi: 0.5, Kappa: 1, Trials: 1, Ns: []int{0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := smallTriple().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveTrialsScaling(t *testing.T) {
	c := TripleConfig{Lo: 0.1, Hi: 0.5, Kappa: 1, Trials: 1000, Ns: []int{2}, ScaleTrials: true}
	if c.EffectiveTrials(1<<14) != 1000 {
		t.Fatal("scaling applied at or below 2^14")
	}
	if got := c.EffectiveTrials(1 << 15); got != 500 {
		t.Fatalf("2^15 trials = %d, want 500", got)
	}
	if got := c.EffectiveTrials(1 << 20); got < 20 {
		t.Fatalf("trial floor violated: %d", got)
	}
	c.ScaleTrials = false
	if c.EffectiveTrials(1<<20) != 1000 {
		t.Fatal("scaling applied while disabled")
	}
}

func TestPowersOfTwo(t *testing.T) {
	ns := PowersOfTwo(5, 8)
	want := []int{32, 64, 128, 256}
	if len(ns) != len(want) {
		t.Fatalf("got %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("got %v, want %v", ns, want)
		}
	}
}

func TestRunTripleProducesPaperOrdering(t *testing.T) {
	rows, err := RunTriple(smallTriple())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline finding: HF best, BA worst, BA-HF between.
		if !(r.HF.Stats.Mean <= r.BAHF.Stats.Mean && r.BAHF.Stats.Mean <= r.BA.Stats.Mean) {
			t.Fatalf("N=%d: ordering violated: HF %.3f BA-HF %.3f BA %.3f",
				r.N, r.HF.Stats.Mean, r.BAHF.Stats.Mean, r.BA.Stats.Mean)
		}
		// Observed ratios stay below the worst-case bounds.
		if r.HF.Stats.Max > r.HF.UB+1e-9 || r.BA.Stats.Max > r.BA.UB+1e-9 ||
			r.BAHF.Stats.Max > r.BAHF.UB+1e-9 {
			t.Fatalf("N=%d: observed ratio above worst-case bound", r.N)
		}
		// And the observed averages sit well below the bounds (the
		// paper's "substantially smaller than our worst-case bounds").
		if r.HF.Stats.Mean > 0.9*r.HF.UB {
			t.Fatalf("N=%d: HF average suspiciously close to bound", r.N)
		}
		if r.Trials != 40 {
			t.Fatalf("N=%d: trials = %d", r.N, r.Trials)
		}
	}
}

func TestRunTripleDeterministic(t *testing.T) {
	a, err := RunTriple(smallTriple())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTriple(smallTriple())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].HF.Stats.Mean != b[i].HF.Stats.Mean || a[i].BA.Stats.Mean != b[i].BA.Stats.Mean {
			t.Fatal("same seed gave different results")
		}
	}
}

func TestRenderTable1AndCSV(t *testing.T) {
	cfg := smallTriple()
	rows, err := RunTriple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tbl strings.Builder
	if err := RenderTable1(&tbl, cfg, rows); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Table 1", "log N", "BA ub", "HF ub"} {
		if !strings.Contains(tbl.String(), frag) {
			t.Fatalf("table missing %q:\n%s", frag, tbl.String())
		}
	}
	var csv strings.Builder
	if err := WriteTripleCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "n,log2n,trials") {
		t.Fatalf("csv header wrong: %s", lines[0])
	}
}

func TestFigure5RenderAndShape(t *testing.T) {
	cfg := Figure5Config(60, 11, 7)
	rows, err := RunTriple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderFigure5(&b, cfg, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 5") {
		t.Fatal("figure title missing")
	}
	if v := CheckFigure5Shape(rows); len(v) != 0 {
		t.Fatalf("Figure 5 shape violations: %v", v)
	}
}

func TestTable1ConfigMatchesPaper(t *testing.T) {
	cfg := Table1Config(1000, 20, 0)
	if cfg.Lo != 0.01 || cfg.Hi != 0.5 || cfg.Kappa != 1.0 {
		t.Fatal("Table 1 parameters wrong")
	}
	if cfg.Ns[0] != 32 || cfg.Ns[len(cfg.Ns)-1] != 1<<20 {
		t.Fatal("Table 1 processor grid wrong")
	}
}

func TestKappaStudyShowsImprovement(t *testing.T) {
	cfg := DefaultKappaConfig(60, 10, 3)
	res, err := RunKappaStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Ns) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper: ≈10% improvement κ=1→2 and ≈5% more at κ=3. Accept the
	// qualitative shape: strictly positive improvements, the first larger
	// than the second.
	if !(res.Improvement[1] > 0 && res.Improvement[2] > 0) {
		t.Fatalf("improvements not positive: %v", res.Improvement)
	}
	if res.Improvement[1] < res.Improvement[2] {
		t.Fatalf("κ=1→2 improvement %.3f smaller than κ=2→3 %.3f",
			res.Improvement[1], res.Improvement[2])
	}
	var b strings.Builder
	if err := RenderKappaStudy(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "improvement κ=1 → κ=2") {
		t.Fatalf("render missing improvement line:\n%s", b.String())
	}
}

func TestKappaStudyValidation(t *testing.T) {
	if _, err := RunKappaStudy(KappaConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestVarianceStudyShape(t *testing.T) {
	cfg := DefaultVarianceStudy(60, 10, 5)
	rows, err := RunVarianceStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byInterval := map[[2]float64]VarianceRow{}
	for _, r := range rows {
		byInterval[r.Interval] = r
	}
	wide := byInterval[[2]float64{0.1, 0.5}]
	narrowSmall := byInterval[[2]float64{0.01, 0.02}]
	// Paper: variance very small except for [α, 2α] with very small α.
	if narrowSmall.HFVarGeo <= wide.HFVarGeo {
		t.Fatalf("narrow-small-α variance %.3g not larger than wide %.3g",
			narrowSmall.HFVarGeo, wide.HFVarGeo)
	}
	var b strings.Builder
	if err := RenderVarianceStudy(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Variance study") {
		t.Fatal("render missing title")
	}
}

func TestOddNStudySimilarity(t *testing.T) {
	cfg := DefaultOddNStudy(60, 9)
	cfg.OddNs = []int{37, 100, 523}
	rows, err := RunOddNStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]TripleRow{}
	for _, r := range rows {
		byN[r.N] = r
	}
	// "Very similar results": each odd N's HF average within 15% of its
	// bracketing powers' averages.
	for _, n := range cfg.OddNs {
		lower := 1
		for lower*2 <= n {
			lower *= 2
		}
		odd := byN[n].HF.Stats.Mean
		lo := byN[lower].HF.Stats.Mean
		hi := byN[lower*2].HF.Stats.Mean
		ref := (lo + hi) / 2
		if diff := odd - ref; diff > 0.15*ref || -diff > 0.15*ref {
			t.Fatalf("N=%d: HF avg %.3f far from bracketing avg %.3f", n, odd, ref)
		}
	}
	var b strings.Builder
	if err := RenderOddNStudy(&b, cfg, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Fatal("odd-N markers missing")
	}
}

func TestMachineStudyClaims(t *testing.T) {
	cfg := DefaultMachineStudy(10, 12, 2)
	rows, err := RunMachineStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(alg string, n int) MachineRow {
		for _, r := range rows {
			if r.Algorithm == alg && r.N == n {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", alg, n)
		return MachineRow{}
	}
	small, large := 32, 4096
	// HF is Θ(N): makespan scales with N.
	hfGrowth := get("HF", large).Makespan.Mean / get("HF", small).Makespan.Mean
	if hfGrowth < 64 {
		t.Fatalf("HF makespan growth %v too small for Θ(N)", hfGrowth)
	}
	// The parallel algorithms are O(log N): far smaller growth.
	for _, alg := range []string{"BA", "BA-HF", "PHF/oracle", "PHF/ba-prime"} {
		g := get(alg, large).Makespan.Mean / get(alg, small).Makespan.Mean
		if g > 6 {
			t.Fatalf("%s makespan growth %v too large for O(log N)", alg, g)
		}
	}
	// BA needs no global ops and no manager traffic.
	if get("BA", large).GlobalOps.Mean != 0 || get("BA", large).MgrMsgs.Mean != 0 {
		t.Fatal("BA charged global or manager traffic")
	}
	// Central management is slower than the BA′ bootstrap at scale.
	if get("PHF/central", large).Makespan.Mean <= get("PHF/ba-prime", large).Makespan.Mean {
		t.Fatal("central manager not slower than BA′ bootstrap")
	}
	var b strings.Builder
	if err := RenderMachineStudy(&b, cfg, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Machine-model study") {
		t.Fatal("render missing title")
	}
	cfg.Ns = []int{32, 0}
	if _, err := RunMachineStudy(cfg); err == nil {
		t.Fatal("N = 0 accepted")
	}
}
