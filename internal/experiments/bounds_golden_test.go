package experiments

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestTable1UpperBounds recomputes the ub columns of the committed Table 1
// artifacts from Table1Config, without running a trial, and compares them
// with the printed values: %.2f in results/table1.txt and ftoa's eight
// significant digits in results/table1.csv.
func TestTable1UpperBounds(t *testing.T) {
	cfg := Table1Config(1000, 20, 1999)
	want := make(map[int][3]float64, len(cfg.Ns))
	for _, n := range cfg.Ns {
		ub, err := tripleBounds(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = ub
	}

	rows := 0
	for _, line := range readLines(t, "../../results/table1.txt") {
		cols := strings.Split(line, "|")
		if len(cols) != 4 {
			continue
		}
		logN, err := strconv.Atoi(strings.TrimSpace(cols[0]))
		if err != nil {
			continue // the header row
		}
		ub, ok := want[1<<logN]
		if !ok {
			t.Fatalf("table1.txt row log N = %d is outside Table1Config's grid", logN)
		}
		for i, name := range []string{"BA", "BA-HF", "HF"} {
			got := strings.Fields(cols[i+1])[0]
			if w := fmt.Sprintf("%.2f", ub[i]); got != w {
				t.Errorf("table1.txt log N = %d: %s ub printed %s, recomputed %s", logN, name, got, w)
			}
		}
		rows++
	}
	if rows != len(cfg.Ns) {
		t.Fatalf("table1.txt has %d rows, Table1Config has %d processor counts", rows, len(cfg.Ns))
	}

	rows = 0
	for _, line := range readLines(t, "../../results/table1.csv")[1:] {
		f := strings.Split(line, ",")
		n, err := strconv.Atoi(f[0])
		if err != nil {
			t.Fatalf("table1.csv: %v", err)
		}
		ub := want[n]
		for i, col := range []int{3, 8, 13} {
			if w := ftoa(ub[i]); f[col] != w {
				t.Errorf("table1.csv N = %d column %d: printed %s, recomputed %s", n, col, f[col], w)
			}
		}
		rows++
	}
	if rows != len(cfg.Ns) {
		t.Fatalf("table1.csv has %d rows, Table1Config has %d processor counts", rows, len(cfg.Ns))
	}
}

// TestBoundsGolden checks the bounds RunTriple reports against the
// guarantee column of internal/bounds' golden table.
func TestBoundsGolden(t *testing.T) {
	for _, r := range readBoundsGolden(t) {
		if r.alg == "PHF" {
			continue
		}
		ub, err := tripleBounds(TripleConfig{Lo: r.alpha, Kappa: r.kappa}, r.n)
		if err != nil {
			t.Fatal(err)
		}
		got := ub[map[string]int{"BA": 0, "BA-HF": 1, "HF": 2}[r.alg]]
		if hexBits(got) != r.guarantee {
			t.Errorf("%s α=%v κ=%v N=%d: RunTriple ub %s, golden %s", r.alg, r.alpha, r.kappa, r.n, hexBits(got), r.guarantee)
		}
	}
}

// boundsGoldenRow is one row of internal/bounds/testdata/golden.txt; the
// bound columns are float64 bit patterns in hex, "-" where none applies.
type boundsGoldenRow struct {
	alg                                string
	alpha, kappa                       float64
	n                                  int
	guarantee, advisor, band, measured string
}

func readBoundsGolden(t *testing.T) []boundsGoldenRow {
	t.Helper()
	var rows []boundsGoldenRow
	for _, line := range readLines(t, "../bounds/testdata/golden.txt") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var r boundsGoldenRow
		if _, err := fmt.Sscan(line, &r.alg, &r.alpha, &r.kappa, &r.n, &r.guarantee, &r.advisor, &r.band, &r.measured); err != nil {
			t.Fatalf("golden row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	return rows
}

func hexBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// readLines returns the non-empty lines of a file.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
