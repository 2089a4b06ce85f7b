package bounds_test

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"bisectlb"
	"bisectlb/internal/bounds"
)

// The golden table (testdata/golden.txt) records, as float64 bit
// patterns, the worst-case bound every consumer of this package serves
// for each algorithm over α ∈ {0.01, 0.1, 0.2, ¼, ⅓, ½}, κ ∈ {0.5, 1,
// 2.5} and N ∈ {1, 2, 3, 7, 16, 1000, 2^16}. Columns:
//
//   - guarantee: Theorems 2/7/8 with Lemma 5 (Guarantee), as the
//     facade's Guarantee functions, the service's plan certificate,
//     verify's guarantee checks and the Table 1 / Figure 5 study report
//     it;
//   - advisor: bisectlb.Recommend's guarantee for the profile that
//     picks the algorithm, with ε = e^{1/κ}−1 (so κ = 1/ln(1+ε));
//   - band: the patch policy's dirty threshold, max(guarantee, 2);
//   - measured: the realized-α̂ bound at α̂ = α (Measured; "-" for
//     BA-HF).
//
// The service and the experiments check their own columns in their
// packages' tests.

type goldenRow struct {
	alg                                string
	alpha, kappa                       float64
	n                                  int
	guarantee, advisor, band, measured string
}

func readGolden(t *testing.T) []goldenRow {
	t.Helper()
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []goldenRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r goldenRow
		if _, err := fmt.Sscan(line, &r.alg, &r.alpha, &r.kappa, &r.n, &r.guarantee, &r.advisor, &r.band, &r.measured); err != nil {
			t.Fatalf("golden row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*6*3*7 {
		t.Fatalf("golden table has %d rows, want %d", len(rows), 4*6*3*7)
	}
	return rows
}

func hexBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// profiles are the advisor profiles that select each algorithm for N > 1.
var profiles = map[string]bisectlb.MachineProfile{
	"HF":    {Sequential: true},
	"PHF":   {GlobalOpsCheap: true},
	"BA-HF": {BalanceCritical: true},
	"BA":    {},
}

// facadeGuarantee is the public per-algorithm guarantee of the facade.
func facadeGuarantee(alg string, alpha, kappa float64, n int) (float64, error) {
	switch alg {
	case "HF", "PHF":
		return bisectlb.GuaranteeHF(alpha)
	case "BA":
		return bisectlb.GuaranteeBA(alpha, n)
	default:
		return bisectlb.GuaranteeBAHF(alpha, kappa)
	}
}

// patchBand reads the dirty threshold a patch uses off a noop patch of
// a one-part prior plan.
func patchBand(t *testing.T, alg string, alpha, kappa float64, n int) float64 {
	t.Helper()
	root, k, err := bisectlb.NewFixedFlat(1, alpha)
	if err != nil {
		t.Fatal(err)
	}
	prior := &bisectlb.Plan{Algorithm: alg, N: n, Total: root.Weight, Max: root.Weight,
		Parts: []bisectlb.FlatPart{{Node: root, Procs: int32(n)}}}
	var pp bisectlb.PatchedPlan
	_, st, err := bisectlb.NewDeltaPlanner(1).PatchInto(&pp, k, root, prior, nil,
		bisectlb.PatchOptions{Alpha: alpha, Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != bisectlb.PatchNoop {
		t.Fatalf("%s N=%d: one-part prior patched as %v", alg, n, st.Outcome)
	}
	return st.Band
}

func TestGoldenBounds(t *testing.T) {
	for _, r := range readGolden(t) {
		at := fmt.Sprintf("%s α=%v κ=%v N=%d", r.alg, r.alpha, r.kappa, r.n)
		check := func(who string, v float64, err error, want string) {
			t.Helper()
			if err != nil {
				t.Errorf("%s: %s: %v", at, who, err)
			} else if got := hexBits(v); got != want {
				t.Errorf("%s: %s %s (%v), golden %s", at, who, got, v, want)
			}
		}
		g, err := facadeGuarantee(r.alg, r.alpha, r.kappa, r.n)
		check("facade", g, err, r.guarantee)
		g, err = bounds.Guarantee(r.alg, r.alpha, r.kappa, r.n)
		check("Guarantee", g, err, r.guarantee)
		rec, err := bisectlb.Recommend(r.alpha, r.n, math.Expm1(1/r.kappa), profiles[r.alg])
		if err != nil {
			t.Fatalf("%s: advisor: %v", at, err)
		}
		check("advisor", rec.Guarantee, nil, r.advisor)
		check("band", patchBand(t, r.alg, r.alpha, r.kappa, r.n), nil, r.band)
		m, err := bounds.Measured(r.alg, r.alpha, r.n)
		if r.measured == "-" {
			if err == nil {
				t.Errorf("%s: measured bound %v, golden has none", at, m)
			}
		} else {
			check("measured", m, err, r.measured)
		}
	}
}
