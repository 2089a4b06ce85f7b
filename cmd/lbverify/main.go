// Command lbverify grid-searches the paper's guarantees far beyond
// Table 1: it draws randomized (α, N, family, seed) instances and checks
// every invariant the verify subsystem knows — structural partition
// contracts, the per-bisection α-band, the HF/PHF/BA/BA-HF worst-case
// ratio guarantees, flat-planner ≡ interface parity, and PHF ≡ HF parity
// on the tie-free family (EXPERIMENTS.md X10; DESIGN.md §11). The two
// real-instance families (graph, spatial) check guarantees against the
// realized α̂ of each run — the measured bound r_α̂ (DESIGN.md §16).
//
// Every failure is shrunk to a minimal reproduction and printed with the
// fields needed to replay it; the exit status is nonzero if any
// invariant was falsified.
//
//	lbverify -sweep                       # 10⁴ instances, seed 1
//	lbverify -sweep -instances 100000     # go deeper
//	lbverify -sweep -seed 7 -families graph,spatial
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bisectlb/internal/verify"
)

func main() {
	var (
		sweep     = flag.Bool("sweep", false, "run the randomized guarantee sweep")
		instances = flag.Int("instances", 10000, "number of random instances to draw")
		seed      = flag.Uint64("seed", 1, "instance-stream seed (same seed replays the same sweep)")
		maxN      = flag.Int("maxn", 2048, "cap on generated processor counts")
		tol       = flag.Float64("tol", 1e-9, "relative tolerance for weight-conservation checks")
		families  = flag.String("families", "", "comma-separated family subset (uniform,fixed,list,fem,graph,spatial); empty = all")
		progress  = flag.Bool("v", false, "print progress every 1000 instances")
	)
	flag.Parse()

	if !*sweep {
		fmt.Fprintln(os.Stderr, "lbverify: nothing to do (pass -sweep)")
		flag.Usage()
		os.Exit(2)
	}

	fams, err := parseFamilies(*families)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbverify:", err)
		os.Exit(2)
	}

	cfg := verify.SweepConfig{
		Instances: *instances,
		Seed:      *seed,
		MaxN:      *maxN,
		Tol:       *tol,
		Families:  fams,
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			if done%1000 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "lbverify: %d/%d instances\n", done, total)
			}
		}
	}

	rep := verify.Sweep(cfg)
	fmt.Printf("lbverify: swept %d instances (seed %d), %d invariant checks\n", rep.Instances, *seed, rep.Checks)
	for _, f := range verify.AllFamilies {
		if n := rep.ByFamily[f.String()]; n > 0 {
			fmt.Printf("  %-10s %6d instances\n", f.String(), n)
		}
	}
	if rep.OK() {
		fmt.Println("lbverify: all guarantees hold")
		return
	}
	fmt.Printf("lbverify: %d VIOLATIONS\n", len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Printf("  [%s] %s\n    instance: %s\n    minimal:  %s\n", f.Alg, f.Err, f.Instance, f.Minimal)
	}
	os.Exit(1)
}

func parseFamilies(s string) ([]verify.Family, error) {
	if s == "" {
		return nil, nil
	}
	var out []verify.Family
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, f := range verify.AllFamilies {
			if f.String() == name {
				out = append(out, f)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown family %q", name)
		}
	}
	return out, nil
}
