package verify

import (
	"math"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
	"bisectlb/internal/bounds"
	"bisectlb/internal/core"
)

// SweepConfig parameterises a guarantee sweep. The zero value sweeps
// 1000 instances over every family at seed 1.
type SweepConfig struct {
	// Instances is the number of random instances to draw (default 1000).
	Instances int
	// Seed seeds the instance stream; the same seed replays the same sweep.
	Seed uint64
	// MaxN caps generated processor counts (default 2048).
	MaxN int
	// Tol is the relative tolerance for weight-conservation checks
	// (default 1e-9). Guarantee comparisons use their own fixed slack.
	Tol float64
	// Families restricts the sweep (default AllFamilies).
	Families []Family
	// ShrinkBudget caps the re-check runs spent minimising one failure
	// (default 64).
	ShrinkBudget int
	// Progress, when set, is called after every instance.
	Progress func(done, total int)
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Instances <= 0 {
		c.Instances = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 64
	}
	return c
}

// Failure is one instance that falsified an invariant, together with the
// minimal shrunk instance that still falsifies it.
type Failure struct {
	// Instance is the originally drawn failing instance.
	Instance Instance
	// Minimal is the smallest shrunk instance still failing the same
	// algorithm's checks (equal to Instance when no shrink reproduces it).
	Minimal Instance
	// Alg tags the algorithm/path whose invariant failed.
	Alg string
	// Err is the violation.
	Err string
}

// Report summarises a sweep.
type Report struct {
	// Instances is the number of instances drawn.
	Instances int
	// Checks counts individual invariant checks performed.
	Checks int
	// ByFamily counts instances per family name.
	ByFamily map[string]int
	// Failures lists every falsified invariant (empty on a clean sweep).
	Failures []Failure
}

// OK reports whether the sweep found no violations.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Sweep draws cfg.Instances random instances and checks, for each, every
// applicable invariant: structural partition contracts, the α-band of
// every recorded bisection, the worst-case ratio guarantees of
// HF/PHF/BA/BA-HF, flat-planner ≡ interface parity, and PHF ≡ HF parity
// on the tie-free family. Each failure is shrunk to a minimal
// reproduction before being reported.
func Sweep(cfg SweepConfig) *Report {
	cfg = cfg.withDefaults()
	g := NewGen(cfg.Seed)
	g.MaxN = cfg.MaxN
	g.Families = cfg.Families
	rep := &Report{Instances: cfg.Instances, ByFamily: make(map[string]int)}
	var pl core.Planner
	for i := 0; i < cfg.Instances; i++ {
		in := g.Instance()
		rep.ByFamily[in.Family.String()]++
		checks, fails := CheckInstance(&pl, in, cfg.Tol)
		rep.Checks += checks
		for _, f := range fails {
			rep.Failures = append(rep.Failures, Failure{
				Instance: in,
				Minimal:  minimize(&pl, in, f.Alg, cfg.Tol, cfg.ShrinkBudget),
				Alg:      f.Alg,
				Err:      f.Err.Error(),
			})
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, cfg.Instances)
		}
	}
	return rep
}

// AlgFailure is one falsified invariant of one algorithm run.
type AlgFailure struct {
	Alg string
	Err error
}

// CheckInstance runs every applicable algorithm over one instance and
// checks every applicable invariant, returning the number of checks
// performed and the failures found. pl may be nil (a temporary Planner is
// used); passing one amortises its buffers across instances.
func CheckInstance(pl *core.Planner, in Instance, tol float64) (checks int, fails []AlgFailure) {
	if pl == nil {
		pl = core.NewPlanner(in.N)
	}
	fail := func(alg string, err error) {
		if err != nil {
			fails = append(fails, AlgFailure{Alg: alg, Err: err})
		}
	}
	check := func(alg string, err error) {
		checks++
		fail(alg, err)
	}

	p, err := in.Problem()
	if err != nil {
		fail("gen", err)
		return checks, fails
	}

	// Interface paths. The substrates are pure (Bisect never mutates), so
	// one root serves every algorithm. The kernel-backed families also
	// plan their own node and kernel on the flat paths.
	root, k, flat := bisect.FlatOf(p)
	measured := in.Family.Measured()
	hf, err := core.HF(p, in.N, core.Options{RecordTree: true})
	if err != nil {
		fail("HF", err)
		return checks, fails
	}
	check("HF", CheckPartition(hf, in.N, tol))
	if measured {
		// Emergent α: check the guarantee provable from the realized
		// bisector quality of the performed bisections alone (r_α̂).
		if a := realizedAlpha(hf.Tree); a > 0 && len(hf.Parts) == hf.N {
			check("HF/realized", CheckMeasuredGuarantee(hf, a))
		}
		if in.Alpha > 0 {
			// Graph/spatial declare a class floor every performed
			// bisection must meet; FEM declares none.
			check("HF", CheckBand(hf.Tree, in.Alpha, tol))
		}
	} else {
		check("HF", CheckBand(hf.Tree, in.Alpha, tol))
		check("HF", CheckGuarantee(hf, in.Alpha, in.Kappa))
	}

	if in.Alpha > 0 {
		phf, err := core.PHF(p, in.N, in.Alpha, core.Options{RecordTree: measured})
		if err != nil {
			fail("PHF", err)
		} else {
			check("PHF", CheckPartition(&phf.Result, in.N, tol))
			if measured {
				if a := realizedAlpha(phf.Result.Tree); a > 0 && len(phf.Result.Parts) == phf.Result.N {
					check("PHF/realized", CheckMeasuredGuarantee(&phf.Result, a))
				}
			} else {
				check("PHF", CheckGuarantee(&phf.Result, in.Alpha, in.Kappa))
			}
			checks++
			if d := bounds.PHFPhase1Depth(in.Alpha, in.N); phf.Phase1Rounds > d {
				fail("PHF", violationf("guarantee", "phase-1 ran %d rounds, bound is %d at α=%g N=%d",
					phf.Phase1Rounds, d, in.Alpha, in.N))
			}
			checks++
			if b := bounds.PHFPhase2Iterations(in.Alpha); phf.Phase2Iterations > b {
				fail("PHF", violationf("guarantee", "phase-2 ran %d iterations, bound is %d at α=%g",
					phf.Phase2Iterations, b, in.Alpha))
			}
			if in.Family == FamilyUniform {
				// Theorem 3's identity, exact on the tie-free family.
				check("HF≡PHF", CheckResultParity(hf, &phf.Result))
			}
			// Flat PHF mirrors PHF's rounds exactly — ties included.
			if flat {
				var plan core.Plan
				if err := pl.PHFInto(&plan, k, root, in.N, in.Alpha); err != nil {
					fail("PHF/flat", err)
				} else {
					check("PHF/flat", CheckPlan(&plan, in.N, tol))
					check("PHF/flat", CheckPlanParity(&plan, &phf.Result))
					check("PHF/flat", CheckPlanGuarantee(&plan, in.Alpha, in.Kappa))
				}
			}
		}

		bahf, err := core.BAHF(p, in.N, in.Alpha, in.Kappa, core.Options{})
		if err != nil {
			fail("BA-HF", err)
		} else {
			check("BA-HF", CheckPartition(bahf, in.N, tol))
			if !measured {
				check("BA-HF", CheckGuarantee(bahf, in.Alpha, in.Kappa))
			}
		}
	}

	ba, err := core.BA(p, in.N, core.Options{RecordTree: measured})
	if err != nil {
		fail("BA", err)
	} else {
		check("BA", CheckPartition(ba, in.N, tol))
		if !measured {
			check("BA", CheckGuarantee(ba, in.Alpha, in.Kappa))
		} else if a := realizedAlpha(ba.Tree); a > 0 && len(ba.Parts) == ba.N {
			check("BA/realized", CheckMeasuredGuarantee(ba, a))
		}
	}

	// Flat paths for HF/BA/BA-HF (PHF handled above, next to its
	// interface run).
	if flat {
		var plan core.Plan
		if err := pl.HFInto(&plan, k, root, in.N); err != nil {
			fail("HF/flat", err)
		} else {
			check("HF/flat", CheckPlan(&plan, in.N, tol))
			check("HF/flat", CheckPlanParity(&plan, hf))
			check("HF/flat", CheckPlanGuarantee(&plan, in.Alpha, in.Kappa))
		}
		if ba != nil {
			if err := pl.BAInto(&plan, k, root, in.N); err != nil {
				fail("BA/flat", err)
			} else {
				check("BA/flat", CheckPlan(&plan, in.N, tol))
				check("BA/flat", CheckPlanParity(&plan, ba))
				check("BA/flat", CheckPlanGuarantee(&plan, in.Alpha, in.Kappa))
			}
		}
		if err := pl.BAHFInto(&plan, k, root, in.N, in.Alpha, in.Kappa); err != nil {
			fail("BA-HF/flat", err)
		} else {
			check("BA-HF/flat", CheckPlan(&plan, in.N, tol))
			check("BA-HF/flat", CheckPlanGuarantee(&plan, in.Alpha, in.Kappa))
		}

		// Patch path (DESIGN.md §15): drift a seeded handful of parts and
		// verify the delta planner's splice and ratio bounds, plus the
		// zero-delta noop identity.
		dp := core.NewDeltaPlanner(in.N)
		opt := core.PatchOptions{Alpha: in.Alpha, Kappa: in.Kappa}
		for _, alg := range []string{"HF", "BA-HF"} {
			var prior core.Plan
			var err error
			if alg == "HF" {
				err = pl.HFInto(&prior, k, root, in.N)
			} else {
				err = pl.BAHFInto(&prior, k, root, in.N, in.Alpha, in.Kappa)
			}
			if err != nil {
				fail("patch/"+alg, err)
				continue
			}
			checks++
			if got, stats, err := dp.PatchInto(&core.PatchedPlan{}, k, root, &prior, nil, opt); err != nil {
				fail("patch/"+alg, err)
			} else if stats.Outcome != core.PatchNoop || got != &prior {
				fail("patch/"+alg, violationf("patch", "zero-delta patch was not a noop on the prior object"))
			}
			deltas := DriftFor(in, &prior)
			var pp core.PatchedPlan
			got, stats, err := dp.PatchInto(&pp, k, root, &prior, deltas, opt)
			if err != nil {
				fail("patch/"+alg, err)
				continue
			}
			checks++
			if stats.Outcome == core.PatchNoop && got != &prior {
				fail("patch/"+alg, violationf("patch", "noop outcome returned a new plan object"))
			}
			check("patch/"+alg, CheckPatchEquivalence(&pp, &prior, deltas, tol))
			check("patch/"+alg, CheckPatchRatio(&pp, &prior, deltas, in.Alpha, in.Kappa, tol))
		}
	}
	return checks, fails
}

// realizedAlpha returns the worst (smallest) split fraction
// min(w1, w2)/w over the recorded bisections, or 0 if the tree recorded
// none. By construction every performed bisection is a realizedAlpha-
// bisection, which is what the RHFProvableN argument needs.
func realizedAlpha(t *bistree.Tree) float64 {
	if t == nil {
		return 0
	}
	worst := math.Inf(1)
	t.Walk(func(n *bistree.Node) {
		if n.IsLeaf() || !(n.Weight > 0) {
			return
		}
		f := math.Min(n.Children[0].Weight, n.Children[1].Weight) / n.Weight
		if f < worst {
			worst = f
		}
	})
	if math.IsInf(worst, 1) {
		return 0
	}
	return worst
}

// minimize shrinks in to the smallest instance still failing alg's
// checks, spending at most budget re-check runs.
func minimize(pl *core.Planner, in Instance, alg string, tol float64, budget int) Instance {
	return minimizeWith(in, budget, func(c Instance) bool { return failsAlg(pl, c, alg, tol) })
}

// minimizeWith is the greedy shrink loop over an arbitrary failure
// predicate: it repeatedly replaces the instance with its first
// still-failing shrink candidate until no candidate fails or the budget
// of predicate evaluations runs out.
func minimizeWith(in Instance, budget int, fails func(Instance) bool) Instance {
	cur := in
	for budget > 0 {
		shrunk := false
		for _, c := range cur.Shrink() {
			budget--
			if fails(c) {
				cur = c
				shrunk = true
				break
			}
			if budget <= 0 {
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return cur
}

func failsAlg(pl *core.Planner, in Instance, alg string, tol float64) bool {
	_, fails := CheckInstance(pl, in, tol)
	for _, f := range fails {
		if f.Alg == alg {
			return true
		}
	}
	return false
}
