// Quickstart: balance a synthetic problem with good bisectors across 64
// processors using every algorithm of the paper and compare the achieved
// maximum load against the ideal share and the worst-case guarantees.
package main

import (
	"fmt"
	"log"

	"bisectlb"
)

func main() {
	const (
		n     = 64   // processors
		alpha = 0.1  // guaranteed bisector quality of the class
		kappa = 1.0  // BA-HF threshold parameter
		seed  = 1999 // reproducible instance
	)

	// The paper's stochastic model: every bisection splits with a fraction
	// drawn uniformly from [alpha, 0.5].
	problem, err := bisectlb.NewSyntheticProblem(1.0, alpha, 0.5, seed)
	if err != nil {
		log.Fatal(err)
	}

	// Validate the α-bisector contract before declaring α to the
	// α-aware algorithms.
	if v := bisectlb.CheckAlpha(problem, alpha, 8, 1e-9); len(v) != 0 {
		log.Fatalf("problem violates the α-bisector contract: %v", v[0])
	}

	fmt.Printf("balancing weight %.2f across %d processors (ideal share %.5f)\n\n",
		problem.Weight(), n, problem.Weight()/n)
	fmt.Printf("%-14s %10s %10s %14s %12s\n",
		"algorithm", "max load", "ratio", "bisections", "guarantee")

	show := func(name string, res *bisectlb.Result, guarantee float64) {
		fmt.Printf("%-14s %10.5f %10.4f %14d %12.2f\n",
			name, res.Max, res.Ratio, res.Bisections, guarantee)
	}

	gHF, _ := bisectlb.GuaranteeHF(alpha)
	gBA, _ := bisectlb.GuaranteeBA(alpha, n)
	gHyb, _ := bisectlb.GuaranteeBAHF(alpha, kappa)

	hf, err := bisectlb.HF(problem, n)
	if err != nil {
		log.Fatal(err)
	}
	show("HF", hf, gHF)

	phf, err := bisectlb.PHF(problem, n, alpha)
	if err != nil {
		log.Fatal(err)
	}
	show("PHF", &phf.Result, gHF)

	ba, err := bisectlb.BA(problem, n)
	if err != nil {
		log.Fatal(err)
	}
	show("BA", ba, gBA)

	hyb, err := bisectlb.BAHF(problem, n, alpha, kappa)
	if err != nil {
		log.Fatal(err)
	}
	show("BA-HF", hyb, gHyb)

	// The flat API plans the same instance allocation-free; a planner
	// with workers fans a large BA plan's independent subtrees out
	// across goroutines (here n is below the 2^15 fan-out cutoff, so it
	// plans on one) and returns the sequential partition bit for bit.
	root, kernel, err := bisectlb.NewSyntheticFlat(1.0, alpha, 0.5, seed)
	if err != nil {
		log.Fatal(err)
	}
	pl := bisectlb.NewParallelPlanner(n, bisectlb.ParallelOptions{})
	var parBA, parPHF bisectlb.Plan
	if err := bisectlb.BalanceInto(&parBA, pl, kernel, root, n, bisectlb.Config{Algorithm: bisectlb.BAAlgorithm}); err != nil {
		log.Fatal(err)
	}
	showPlan := func(name string, plan *bisectlb.Plan, guarantee float64) {
		fmt.Printf("%-14s %10.5f %10.4f %14d %12.2f\n",
			name, plan.Max, plan.Ratio, plan.Bisections, guarantee)
	}
	showPlan("parallel BA", &parBA, gBA)
	if err := bisectlb.BalanceInto(&parPHF, pl, kernel, root, n, bisectlb.Config{Algorithm: bisectlb.PHFAlgorithm, Alpha: alpha}); err != nil {
		log.Fatal(err)
	}
	showPlan("parallel PHF", &parPHF, gHF)

	fmt.Println()
	// Theorem 3 in action: PHF (in both executions) computed exactly HF's
	// partition.
	fmt.Printf("PHF == HF partitions:          %v\n", bisectlb.SamePartition(hf, &phf.Result))
	fmt.Printf("parallel PHF == HF partitions: %v\n", samePlan(hf, &parPHF))
	fmt.Printf("parallel BA == BA partitions:  %v\n", samePlan(ba, &parBA))
	fmt.Printf("PHF phase accounting: %d phase-1 rounds, %d phase-2 iterations, %d global ops, model time %d\n",
		phf.Phase1Rounds, phf.Phase2Iterations, phf.GlobalOps, phf.ModelTime)
}

// samePlan reports whether a flat plan holds exactly the parts of a
// Balance result, compared by problem ID (both are in ID order).
func samePlan(res *bisectlb.Result, plan *bisectlb.Plan) bool {
	if len(res.Parts) != len(plan.Parts) {
		return false
	}
	for i, pt := range res.Parts {
		if pt.Problem.ID() != plan.Parts[i].Node.ID {
			return false
		}
	}
	return true
}
