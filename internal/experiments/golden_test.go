package experiments

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestGoldenTriple renders a reduced Table 1 and Figure 5 (20 trials,
// N = 2^5 … 2^12, seed 1999), each followed by its CSV, and compares the
// bytes with testdata. The CSV's eight significant digits pin every
// trial's ratio statistics, so any change in how BA, BA-HF or HF split
// the synthetic stream shows here. The testdata was captured while the
// studies planned the synthetic Problem form; any planning path must
// reproduce it.
func TestGoldenTriple(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    TripleConfig
		render func(io.Writer, TripleConfig, []TripleRow) error
	}{
		{"table1", Table1Config(20, 12, 1999), RenderTable1},
		{"figure5", Figure5Config(20, 12, 1999), RenderFigure5},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := renderTriple(t, c.cfg, c.render)
			want, err := os.ReadFile("testdata/" + c.name + "_golden.txt")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
			}
		})
	}
}

// renderTriple runs cfg and returns its rendering followed by its CSV.
func renderTriple(t *testing.T, cfg TripleConfig, render func(io.Writer, TripleConfig, []TripleRow) error) []byte {
	t.Helper()
	rows, err := RunTriple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := render(&b, cfg, rows); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n")
	if err := WriteTripleCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
