package service

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"bisectlb"
)

// TestGuaranteeForGolden checks the certificate servePlan attaches
// against the guarantee column of internal/bounds' golden table.
func TestGuaranteeForGolden(t *testing.T) {
	raw, err := os.ReadFile("../bounds/testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var (
			name, want   string
			alpha, kappa float64
			n            int
		)
		if _, err := fmt.Sscan(line, &name, &alpha, &kappa, &n, &want); err != nil {
			t.Fatalf("golden row %q: %v", line, err)
		}
		alg, err := bisectlb.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(guaranteeFor(alg, alpha, kappa, n))); got != want {
			t.Errorf("%s α=%v κ=%v N=%d: guarantee %s, golden %s", name, alpha, kappa, n, got, want)
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("golden table is empty")
	}
}
