package core

import (
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/xrand"
)

// flatCase pairs an interface substrate with its flat kernel so parity can
// be checked for every algorithm over every substrate.
type flatCase struct {
	name   string
	root   func() bisect.Problem
	flat   bisect.FlatNode
	kernel bisect.Kernel
}

func flatCases() []flatCase {
	return []flatCase{
		{
			name:   "uniform",
			root:   func() bisect.Problem { return bisect.MustSynthetic(1, 0.1, 0.5, 42) },
			flat:   bisect.SyntheticFlatRoot(1, 42),
			kernel: bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5},
		},
		{
			name:   "fixed",
			root:   func() bisect.Problem { return bisect.MustFixed(2, 0.3) },
			flat:   bisect.FixedFlatRoot(2),
			kernel: bisect.FixedKernel{Alpha: 0.3},
		},
		{
			name:   "list",
			root:   func() bisect.Problem { return bisect.MustList(5000, 0.2, 7) },
			flat:   bisect.ListFlatRoot(5000, 0.2, 7),
			kernel: bisect.ListKernel{Alpha: 0.2},
		},
	}
}

// checkPlanMatchesResult asserts that a flat plan and an interface result
// describe the identical partition: same part IDs, weights, processor
// counts, depths, and summary statistics.
func checkPlanMatchesResult(t *testing.T, plan *Plan, res *Result) {
	t.Helper()
	if len(plan.Parts) != len(res.Parts) {
		t.Fatalf("part count: flat %d, interface %d", len(plan.Parts), len(res.Parts))
	}
	for i := range plan.Parts {
		fp, ip := plan.Parts[i], res.Parts[i]
		if fp.Node.ID != ip.Problem.ID() {
			t.Fatalf("part %d: flat ID %d, interface ID %d", i, fp.Node.ID, ip.Problem.ID())
		}
		if fp.Node.Weight != ip.Problem.Weight() {
			t.Fatalf("part %d: flat weight %v, interface weight %v", i, fp.Node.Weight, ip.Problem.Weight())
		}
		if int(fp.Procs) != ip.Procs {
			t.Fatalf("part %d: flat procs %d, interface procs %d", i, fp.Procs, ip.Procs)
		}
		if int(fp.Node.Depth) != ip.Depth {
			t.Fatalf("part %d: flat depth %d, interface depth %d", i, fp.Node.Depth, ip.Depth)
		}
	}
	if plan.Total != res.Total || plan.Max != res.Max || plan.Ratio != res.Ratio {
		t.Fatalf("summary diverged: flat (%v,%v,%v), interface (%v,%v,%v)",
			plan.Total, plan.Max, plan.Ratio, res.Total, res.Max, res.Ratio)
	}
	if plan.Bisections != res.Bisections || plan.MaxDepth != res.MaxDepth {
		t.Fatalf("accounting diverged: flat (%d,%d), interface (%d,%d)",
			plan.Bisections, plan.MaxDepth, res.Bisections, res.MaxDepth)
	}
}

func TestPlannerHFParity(t *testing.T) {
	for _, tc := range flatCases() {
		for _, n := range []int{1, 2, 17, 64, 333, 1024, 4096} {
			res, err := oracleHF(tc.root(), n, Options{})
			if err != nil {
				t.Fatalf("%s n=%d interface: %v", tc.name, n, err)
			}
			pl := NewPlanner(n)
			var plan Plan
			if err := pl.HFInto(&plan, tc.kernel, tc.flat, n); err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			checkPlanMatchesResult(t, &plan, res)
		}
	}
}

func TestPlannerBAParity(t *testing.T) {
	for _, tc := range flatCases() {
		for _, n := range []int{1, 2, 17, 64, 333, 1024} {
			pl := NewPlanner(n)
			var plan Plan
			if err := pl.BAInto(&plan, tc.kernel, tc.flat, n); err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			res, err := oracleBA(tc.root(), n, Options{})
			if err != nil {
				t.Fatalf("%s n=%d interface: %v", tc.name, n, err)
			}
			checkPlanMatchesResult(t, &plan, res)
		}
	}
}

func TestPlannerBAHFParity(t *testing.T) {
	for _, tc := range flatCases() {
		for _, n := range []int{1, 2, 17, 64, 333, 1024, 4096} {
			for _, kappa := range []float64{1, 2} {
				res, err := oracleBAHF(tc.root(), n, 0.1, kappa, Options{})
				if err != nil {
					t.Fatalf("%s n=%d κ=%g interface: %v", tc.name, n, kappa, err)
				}
				// Interface BA-HF embeds κ in the algorithm name; ignore it.
				res.Algorithm = "BA-HF"
				pl := NewPlanner(n)
				var plan Plan
				if err := pl.BAHFInto(&plan, tc.kernel, tc.flat, n, 0.1, kappa); err != nil {
					t.Fatalf("%s n=%d κ=%g: %v", tc.name, n, kappa, err)
				}
				checkPlanMatchesResult(t, &plan, res)
			}
		}
	}
}

func TestPlannerPHFParity(t *testing.T) {
	for _, tc := range flatCases() {
		for _, n := range []int{1, 2, 17, 64, 333, 1024} {
			pl := NewPlanner(n)
			var plan Plan
			if err := pl.PHFInto(&plan, tc.kernel, tc.flat, n, 0.1); err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			res, err := oraclePHF(tc.root(), n, 0.1, Options{})
			if err != nil {
				t.Fatalf("%s n=%d interface: %v", tc.name, n, err)
			}
			checkPlanMatchesResult(t, &plan, &res.Result)
		}
	}
}

// TestPlannerReuseIsDeterministic runs the same plan twice through one
// planner (buffers warm the second time) and demands identical output.
func TestPlannerReuseIsDeterministic(t *testing.T) {
	pl := NewPlanner(256)
	k := bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 9)
	var a, b Plan
	if err := pl.HFInto(&a, k, root, 256); err != nil {
		t.Fatal(err)
	}
	// Interleave another algorithm to dirty every shared buffer.
	if err := pl.BAHFInto(&b, k, root, 256, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if err := pl.HFInto(&b, k, root, 256); err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != len(b.Parts) {
		t.Fatalf("reuse changed part count: %d vs %d", len(a.Parts), len(b.Parts))
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatalf("reuse changed part %d: %+v vs %+v", i, a.Parts[i], b.Parts[i])
		}
	}
}

// TestPlannerAllocationFree is the §10 acceptance check: once the planner
// and plan buffers are warm, HF, BA, BA-HF and PHF planning performs zero
// heap allocations per run.
func TestPlannerAllocationFree(t *testing.T) {
	const n = 1024
	// Convert the kernel to its interface form once: converting a multi-word
	// concrete kernel at every call would itself allocate.
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 42)
	runs := []struct {
		name string
		run  func(pl *Planner, plan *Plan) error
	}{
		{"HF", func(pl *Planner, plan *Plan) error { return pl.HFInto(plan, k, root, n) }},
		{"BA", func(pl *Planner, plan *Plan) error { return pl.BAInto(plan, k, root, n) }},
		{"BA-HF", func(pl *Planner, plan *Plan) error { return pl.BAHFInto(plan, k, root, n, 0.1, 1) }},
		{"PHF", func(pl *Planner, plan *Plan) error { return pl.PHFInto(plan, k, root, n, 0.1) }},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlanner(n)
			var plan Plan
			if err := tc.run(pl, &plan); err != nil { // warm the buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := tc.run(pl, &plan); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s planning allocates %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestPlannerBucketQueueParity pins that the deprecated SetBucketQueue
// is a no-op: a planner told either setting plans every HF path (HFInto
// and BA-HF's inner phase) exactly as an untouched planner does.
func TestPlannerBucketQueueParity(t *testing.T) {
	for _, tc := range flatCases() {
		for _, n := range []int{1, 17, 1024, 4096} {
			for _, on := range []bool{false, true} {
				ref, pl := NewPlanner(n), NewPlanner(n)
				pl.SetBucketQueue(on)
				var rp, p Plan
				if err := ref.HFInto(&rp, tc.kernel, tc.flat, n); err != nil {
					t.Fatal(err)
				}
				if err := pl.HFInto(&p, tc.kernel, tc.flat, n); err != nil {
					t.Fatal(err)
				}
				checkPlansIdentical(t, &rp, &p)
				if err := ref.BAHFInto(&rp, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatal(err)
				}
				if err := pl.BAHFInto(&p, tc.kernel, tc.flat, n, 0.1, 1); err != nil {
					t.Fatal(err)
				}
				checkPlansIdentical(t, &rp, &p)
			}
		}
	}
}

// checkPlansIdentical demands two plans be equal field for field,
// including the exact float64 bits of every part weight.
func checkPlansIdentical(t *testing.T, a, b *Plan) {
	t.Helper()
	if a.Algorithm != b.Algorithm || a.N != b.N || a.Total != b.Total ||
		a.Max != b.Max || a.Ratio != b.Ratio ||
		a.Bisections != b.Bisections || a.MaxDepth != b.MaxDepth {
		t.Fatalf("plan summaries diverged:\n  a: %+v\n  b: %+v", headerOf(a), headerOf(b))
	}
	if len(a.Parts) != len(b.Parts) {
		t.Fatalf("part counts diverged: %d vs %d", len(a.Parts), len(b.Parts))
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatalf("part %d diverged: %+v vs %+v", i, a.Parts[i], b.Parts[i])
		}
	}
}

// headerOf copies a plan's summary fields for failure messages.
func headerOf(p *Plan) Plan {
	h := *p
	h.Parts = nil
	return h
}

// TestPlannerBucketQueueAllocationFree extends the §10 acceptance check
// to N = 4096, where HF's queue runs as a radix heap: after warm-up
// (which grows its chunk pool), HF and BA-HF planning performs zero heap
// allocations per run.
func TestPlannerBucketQueueAllocationFree(t *testing.T) {
	const n = 4096
	var k bisect.Kernel = bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}
	root := bisect.SyntheticFlatRoot(1, 42)
	runs := []struct {
		name string
		run  func(pl *Planner, plan *Plan) error
	}{
		{"HF", func(pl *Planner, plan *Plan) error { return pl.HFInto(plan, k, root, n) }},
		{"BA-HF", func(pl *Planner, plan *Plan) error { return pl.BAHFInto(plan, k, root, n, 0.1, 1) }},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlanner(n)
			var plan Plan
			if err := tc.run(pl, &plan); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := tc.run(pl, &plan); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s planning at N=%d allocates %v allocs/op, want 0", tc.name, n, allocs)
			}
		})
	}
}

// TestPlannerMixedScaleAllocationFree extends the §10 acceptance check
// to the order a long-lived planner sees in plan-large: HF and BA-HF on
// the uniform, fixed and list kernels at N = 2^10 … 2^16, reshuffled on
// every pass. After one warm-up pass over every configuration, a
// shuffled pass allocates nothing, so no buffer of HF's queue keeps
// regrowing when a small plan follows a large one or the reverse.
func TestPlannerMixedScaleAllocationFree(t *testing.T) {
	kernels := []struct {
		k     bisect.Kernel
		root  bisect.FlatNode
		alpha float64
	}{
		{bisect.SyntheticKernel{Lo: 0.1, Hi: 0.5}, bisect.SyntheticFlatRoot(1, 42), 0.1},
		{bisect.FixedKernel{Alpha: 0.3}, bisect.FixedFlatRoot(1.5), 0.3},
		{bisect.ListKernel{Alpha: 0.25}, bisect.ListFlatRoot(1<<21, 0.25, 7), 0.25},
	}
	var runs []func(pl *Planner, plan *Plan) error
	for _, kc := range kernels {
		for n := 1 << 10; n <= 1<<16; n *= 2 {
			runs = append(runs,
				func(pl *Planner, plan *Plan) error { return pl.HFInto(plan, kc.k, kc.root, n) },
				func(pl *Planner, plan *Plan) error { return pl.BAHFInto(plan, kc.k, kc.root, n, kc.alpha, 1) })
		}
	}
	pl := NewPlanner(1 << 10)
	var plan Plan
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	pass := func() {
		for _, i := range order {
			if err := runs[i](pl, &plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm-up, in ascending N per kernel
	rng := xrand.New(29)
	allocs := testing.AllocsPerRun(2, func() {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		pass()
	})
	if allocs != 0 {
		t.Fatalf("a shuffled mixed-scale pass allocates %v times, want 0", allocs)
	}
}

func TestPlannerRejectsBadInput(t *testing.T) {
	pl := NewPlanner(4)
	k := bisect.FixedKernel{Alpha: 0.3}
	var plan Plan
	if err := pl.HFInto(&plan, k, bisect.FlatNode{Weight: 0}, 4); err == nil {
		t.Fatal("zero-weight root accepted")
	}
	if err := pl.HFInto(&plan, k, bisect.FixedFlatRoot(1), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if err := pl.PHFInto(&plan, k, bisect.FixedFlatRoot(1), 4, 0); err == nil {
		t.Fatal("α=0 accepted by PHFInto")
	}
	if err := pl.BAHFInto(&plan, k, bisect.FixedFlatRoot(1), 4, 0.1, -1); err == nil {
		t.Fatal("κ<0 accepted by BAHFInto")
	}
}
