// Branch-and-bound example (paper ref [9], Karp–Zhang): split the frontier
// of a backtrack search across processors so each explores a near-equal
// share of the remaining candidate leaves. Demonstrates balancing quality
// and the parallel speedup implied by the maximum share.
package main

import (
	"fmt"
	"log"

	"bisectlb"
)

func main() {
	const seed = 11

	problem, err := bisectlb.NewSearchTreeProblem(bisectlb.SearchTreeConfig{
		MaxDepth:   18,
		MaxBranch:  4,
		ExpandProb: 0.9,
		Seed:       seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	total := problem.Weight()
	fmt.Printf("search space with %.0f candidate leaves\n", total)

	probed := bisectlb.ProbeAlpha(problem, 512)
	alpha := probed * 0.9
	fmt.Printf("probed frontier-split quality α̂_min = %.4f\n\n", probed)

	fmt.Printf("%6s  %10s  %10s  %10s  %12s\n", "procs", "HF ratio", "BA ratio", "BA-HF", "est. speedup")
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		hf, err := bisectlb.HF(problem, n)
		if err != nil {
			log.Fatal(err)
		}
		ba, err := bisectlb.BA(problem, n)
		if err != nil {
			log.Fatal(err)
		}
		hyb, err := bisectlb.BAHF(problem, n, alpha, 2.0)
		if err != nil {
			log.Fatal(err)
		}
		// With perfect balance the speedup would be n; the heaviest share
		// caps it at total / max.
		speedup := total / hf.Max
		fmt.Printf("%6d  %10.3f  %10.3f  %10.3f  %11.1fx\n",
			n, hf.Ratio, ba.Ratio, hyb.Ratio, speedup)
	}

	// Large-scale split with BA. BA plans the frontier on the flat Planner
	// through the problem kernel, whose Split is not safe for concurrent
	// use, so a planner with workers (NewParallelPlanner) would plan it
	// on one goroutine too.
	const big = 1024
	par, err := bisectlb.BA(problem, big)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBA split into %d frontiers: ratio %.3f, %d bisections\n",
		len(par.Parts), par.Ratio, par.Bisections)
}
