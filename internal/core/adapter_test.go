package core

import (
	"fmt"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/bistree"
	"bisectlb/internal/femtree"
	"bisectlb/internal/graph"
	"bisectlb/internal/quadrature"
	"bisectlb/internal/searchtree"
	"bisectlb/internal/spatial"
)

// substrate builds a fresh root problem of one family; fresh because
// some substrates (graph, spatial) cache work inside their nodes.
type substrate struct {
	name string
	root func(t *testing.T) bisect.Problem
}

func must(t *testing.T, p bisect.Problem, err error) bisect.Problem {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// substrates are the eight served families.
func substrates() []substrate {
	return []substrate{
		{"uniform", func(*testing.T) bisect.Problem { return bisect.MustSynthetic(1, 0.1, 0.5, 11) }},
		{"fixed", func(*testing.T) bisect.Problem { return bisect.MustFixed(2, 0.25) }},
		{"list", func(*testing.T) bisect.Problem { return bisect.MustList(20000, 0.2, 12) }},
		{"fem", func(*testing.T) bisect.Problem {
			return femtree.NewRegion(femtree.MustGenerate(femtree.DefaultGenConfig(13)))
		}},
		{"quadrature", func(t *testing.T) bisect.Problem {
			p, err := quadrature.NewRootBox(quadrature.DefaultIntegrand(14), quadrature.SplitMedian, 1e-4)
			return must(t, p, err)
		}},
		{"searchtree", func(*testing.T) bisect.Problem {
			return searchtree.NewFrontier(searchtree.MustGenerate(searchtree.DefaultGenConfig(15)))
		}},
		{"graph", func(t *testing.T) bisect.Problem {
			h, err := graph.GridGraph(12, 10, 3, 16)
			if err != nil {
				t.Fatal(err)
			}
			p, err := graph.New(h, graph.Config{Seed: 17})
			return must(t, p, err)
		}},
		{"spatial", func(t *testing.T) bisect.Problem {
			m, err := spatial.BlobMatrix(24, 30, 3, 900, 18)
			if err != nil {
				t.Fatal(err)
			}
			p, err := spatial.New(m, spatial.Config{Seed: 19})
			return must(t, p, err)
		}},
	}
}

// algorithmPair runs one algorithm through its adapter and its oracle.
type algorithmPair struct {
	name          string
	adapter, orac func(p bisect.Problem, n int, opt Options) (*Result, *PHFStats, error)
}

func algorithmPairs() []algorithmPair {
	const alpha, kappa = 0.1, 1.5
	plain := func(f func(bisect.Problem, int, Options) (*Result, error)) func(bisect.Problem, int, Options) (*Result, *PHFStats, error) {
		return func(p bisect.Problem, n int, opt Options) (*Result, *PHFStats, error) {
			r, err := f(p, n, opt)
			return r, nil, err
		}
	}
	phf := func(f func(bisect.Problem, int, float64, Options) (*PHFResult, error)) func(bisect.Problem, int, Options) (*Result, *PHFStats, error) {
		return func(p bisect.Problem, n int, opt Options) (*Result, *PHFStats, error) {
			r, err := f(p, n, alpha, opt)
			if err != nil {
				return nil, nil, err
			}
			return &r.Result, &r.PHFStats, nil
		}
	}
	bahf := func(f func(bisect.Problem, int, float64, float64, Options) (*Result, error)) func(bisect.Problem, int, Options) (*Result, *PHFStats, error) {
		return plain(func(p bisect.Problem, n int, opt Options) (*Result, error) { return f(p, n, alpha, kappa, opt) })
	}
	return []algorithmPair{
		{"HF", plain(HF), plain(oracleHF)},
		{"BA", plain(BA), plain(oracleBA)},
		{"BA-HF", bahf(BAHF), bahf(oracleBAHF)},
		{"PHF", phf(PHF), phf(oraclePHF)},
		{"BA-naive", plain(BANaiveSplit), plain(oracleBANaive)},
	}
}

// checkSameResult demands two results be identical: every part's
// identity, weight, processor count and depth, the summary statistics,
// and the recorded bisection tree node for node, Procs included.
func checkSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.N != want.N || got.Total != want.Total ||
		got.Max != want.Max || got.Ratio != want.Ratio ||
		got.Bisections != want.Bisections || got.MaxDepth != want.MaxDepth {
		t.Fatalf("summary: got (%s n=%d total=%v max=%v ratio=%v bis=%d depth=%d), want (%s n=%d total=%v max=%v ratio=%v bis=%d depth=%d)",
			got.Algorithm, got.N, got.Total, got.Max, got.Ratio, got.Bisections, got.MaxDepth,
			want.Algorithm, want.N, want.Total, want.Max, want.Ratio, want.Bisections, want.MaxDepth)
	}
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("parts: got %d, want %d", len(got.Parts), len(want.Parts))
	}
	for i := range got.Parts {
		g, w := got.Parts[i], want.Parts[i]
		if g.Problem.ID() != w.Problem.ID() || g.Problem.Weight() != w.Problem.Weight() ||
			g.Procs != w.Procs || g.Depth != w.Depth {
			t.Fatalf("part %d: got (id %d w %v procs %d depth %d), want (id %d w %v procs %d depth %d)", i,
				g.Problem.ID(), g.Problem.Weight(), g.Procs, g.Depth,
				w.Problem.ID(), w.Problem.Weight(), w.Procs, w.Depth)
		}
	}
	if (got.Tree == nil) != (want.Tree == nil) {
		t.Fatalf("tree recorded: got %v, want %v", got.Tree != nil, want.Tree != nil)
	}
	if got.Tree != nil {
		if got.Tree.Size() != want.Tree.Size() {
			t.Fatalf("tree size: got %d, want %d", got.Tree.Size(), want.Tree.Size())
		}
		checkSameTree(t, got.Tree.Root, want.Tree.Root)
	}
}

func checkSameTree(t *testing.T, got, want *bistree.Node) {
	t.Helper()
	if got.ID != want.ID || got.Weight != want.Weight || got.Depth != want.Depth || got.Procs != want.Procs {
		t.Fatalf("tree node: got (id %d w %v depth %d procs %d), want (id %d w %v depth %d procs %d)",
			got.ID, got.Weight, got.Depth, got.Procs, want.ID, want.Weight, want.Depth, want.Procs)
	}
	if got.IsLeaf() != want.IsLeaf() {
		t.Fatalf("tree node %d: leaf %v, want %v", got.ID, got.IsLeaf(), want.IsLeaf())
	}
	if !got.IsLeaf() {
		checkSameTree(t, got.Children[0], want.Children[0])
		checkSameTree(t, got.Children[1], want.Children[1])
	}
}

// TestAdaptersMatchOracle is the parity contract of the single planning
// path: HF, BA, BAHF, PHF and BANaiveSplit over the problem kernel
// reproduce the Problem-interface recursions exactly — parts,
// accounting, the recorded tree with BA's processor counts, and PHF's
// phase accounting — on all eight served families, with and without
// tree recording.
func TestAdaptersMatchOracle(t *testing.T) {
	for _, sub := range substrates() {
		for _, alg := range algorithmPairs() {
			for _, n := range []int{1, 17, 500} {
				for _, record := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/n=%d/record=%v", sub.name, alg.name, n, record), func(t *testing.T) {
						opt := Options{RecordTree: record}
						got, gotSt, err := alg.adapter(sub.root(t), n, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, wantSt, err := alg.orac(sub.root(t), n, opt)
						if err != nil {
							t.Fatalf("oracle: %v", err)
						}
						checkSameResult(t, got, want)
						if gotSt != nil && *gotSt != *wantSt {
							t.Fatalf("PHF accounting: got %+v, want %+v", *gotSt, *wantSt)
						}
					})
				}
			}
		}
	}
}

// TestAdaptersMatchOracleOnBrokenProblems extends the parity contract to
// the failure-injection problems of failure_test.go: conservation
// violations either way and a non-deterministic Bisect.
func TestAdaptersMatchOracleOnBrokenProblems(t *testing.T) {
	broken := []substrate{
		{"leaky", func(*testing.T) bisect.Problem { return &leakyProblem{weight: 1, id: 1} }},
		{"growing", func(*testing.T) bisect.Problem { return &growingProblem{weight: 1, id: 1} }},
		{"flipflop", func(*testing.T) bisect.Problem { return &flipFlopProblem{weight: 1, id: 1, calls: new(int)} }},
	}
	for _, sub := range broken {
		for _, alg := range algorithmPairs() {
			for _, n := range []int{1, 17, 64} {
				got, gotSt, err := alg.adapter(sub.root(t), n, Options{RecordTree: true})
				if err != nil {
					t.Fatalf("%s/%s/n=%d: %v", sub.name, alg.name, n, err)
				}
				want, wantSt, err := alg.orac(sub.root(t), n, Options{RecordTree: true})
				if err != nil {
					t.Fatalf("%s/%s/n=%d oracle: %v", sub.name, alg.name, n, err)
				}
				checkSameResult(t, got, want)
				if gotSt != nil && *gotSt != *wantSt {
					t.Fatalf("%s/%s/n=%d PHF accounting: got %+v, want %+v", sub.name, alg.name, n, *gotSt, *wantSt)
				}
			}
		}
	}
}

// TestAdaptersRejectLikeOracle pins that every adapter refuses exactly
// the inputs the oracle refuses: a colliding-ID tree, NaN and infinite
// roots, a nil root and n < 1.
func TestAdaptersRejectLikeOracle(t *testing.T) {
	cases := []struct {
		name string
		root func() bisect.Problem
		n    int
		opt  Options
	}{
		{"collision", func() bisect.Problem { return &collidingProblem{weight: 1} }, 8, Options{RecordTree: true}},
		{"nan", func() bisect.Problem { return nanRoot{} }, 4, Options{}},
		{"inf", func() bisect.Problem { return infRoot{} }, 4, Options{}},
		{"nil", func() bisect.Problem { return nil }, 4, Options{}},
		{"n=0", func() bisect.Problem { return bisect.MustFixed(1, 0.3) }, 0, Options{}},
	}
	for _, c := range cases {
		for _, alg := range algorithmPairs() {
			_, _, gotErr := alg.adapter(c.root(), c.n, c.opt)
			_, _, wantErr := alg.orac(c.root(), c.n, c.opt)
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s/%s: adapter error %v, oracle error %v", c.name, alg.name, gotErr, wantErr)
			}
		}
	}
}

// lazyListKernel is ListKernel with its leaf verdict deferred to
// CanSplit: its nodes never carry Leaf, so every planner must ask.
type lazyListKernel struct{ bisect.ListKernel }

func (k lazyListKernel) Split(n bisect.FlatNode) (a, b bisect.FlatNode) {
	a, b = k.ListKernel.Split(n)
	a.Leaf, b.Leaf = false, false
	return a, b
}

func (k lazyListKernel) CanSplit(n bisect.FlatNode) bool {
	return !bisect.ListFlatRoot(int(n.S1), k.Alpha, n.S0).Leaf
}

// clearLeaves drops the cached leaf verdicts from a plan's parts.
func clearLeaves(p *Plan) {
	for i := range p.Parts {
		p.Parts[i].Node.Leaf = false
	}
}

// TestLazyKernelMatchesEager pins the lazy-leaf contract at every
// planner site that decides whether to split: a list kernel that answers
// CanSplit on demand plans exactly like the eager one under HF, BA,
// BA-HF and PHF, through a one-worker planner and one with workers and
// through a delta patch. The list substrate has many indivisible
// nodes, so a site that ignored CanSplit would split one and panic.
func TestLazyKernelMatchesEager(t *testing.T) {
	const alpha = 0.2
	eager := bisect.ListKernel{Alpha: alpha}
	var lazy bisect.Kernel = lazyListKernel{eager}
	root := bisect.ListFlatRoot(600, alpha, 3)
	lazyRoot := root
	lazyRoot.Leaf = false
	lowerFanOut(t)
	pp := NewParallelPlanner(0, ParallelOptions{Workers: 2})
	runs := []struct {
		name string
		run  func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error
	}{
		{"HF", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pl.HFInto(plan, k, root, n)
		}},
		{"BA", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pl.BAInto(plan, k, root, n)
		}},
		{"BA-HF", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pl.BAHFInto(plan, k, root, n, alpha, 1)
		}},
		{"PHF", func(pl *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pl.PHFInto(plan, k, root, n, alpha)
		}},
		{"parallel BA", func(_ *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pp.BAInto(plan, k, root, n)
		}},
		{"parallel BA-HF", func(_ *Planner, plan *Plan, k bisect.Kernel, root bisect.FlatNode, n int) error {
			return pp.BAHFInto(plan, k, root, n, alpha, 1)
		}},
	}
	for _, r := range runs {
		// 2000 processors exceed the list's 600 elements, so every
		// algorithm reaches indivisible nodes.
		for _, n := range []int{1, 17, 500, 2000} {
			var want, got Plan
			if err := r.run(NewPlanner(n), &want, eager, root, n); err != nil {
				t.Fatal(err)
			}
			if err := r.run(NewPlanner(n), &got, lazy, lazyRoot, n); err != nil {
				t.Fatalf("%s n=%d: %v", r.name, n, err)
			}
			clearLeaves(&want)
			checkPlansIdentical(t, &got, &want)
		}
	}

	// Delta patch: drift four parts of a BA plan hard enough to send the
	// repair down to indivisible fragments, yet few enough that their
	// drifted weight stays below the full-replan fraction.
	const n = 300
	var prior, lazyPrior Plan
	if err := NewPlanner(n).BAInto(&prior, eager, root, n); err != nil {
		t.Fatal(err)
	}
	if err := NewPlanner(n).BAInto(&lazyPrior, lazy, lazyRoot, n); err != nil {
		t.Fatal(err)
	}
	var deltas []WeightDelta
	for _, pt := range prior.Parts[:4] {
		deltas = append(deltas, WeightDelta{ID: pt.Node.ID, Factor: 50})
	}
	opt := PatchOptions{Alpha: alpha}
	var dst, lazyDst PatchedPlan
	want, wantSt, err := NewDeltaPlanner(n).PatchInto(&dst, eager, root, &prior, deltas, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := NewDeltaPlanner(n).PatchInto(&lazyDst, lazy, lazyRoot, &lazyPrior, deltas, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != wantSt || wantSt.Outcome != PatchPatched || wantSt.Oversize == 0 {
		t.Fatalf("patch stats: lazy %+v, eager %+v", gotSt, wantSt)
	}
	clearLeaves(want)
	checkPlansIdentical(t, got, want)
}

// TestParallelPlannerProblemKernelSequential pins that a planner with
// workers plans the problem kernel, whose Split is not safe for
// concurrent use, on one goroutine (the race detector checks the
// claim) and still returns a one-worker planner's plan.
func TestParallelPlannerProblemKernelSequential(t *testing.T) {
	const n = 4096
	newRoot := func() (bisect.FlatNode, *ProblemKernel) {
		root, k, err := NewProblemKernel(bisect.MustSynthetic(1, 0.1, 0.5, 5), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return root, k
	}
	lowerFanOut(t)
	pp := NewParallelPlanner(n, ParallelOptions{Workers: 4})
	var got, want Plan
	root, k := newRoot()
	if err := pp.BAHFInto(&got, k, root, n, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if pp.FannedOut() {
		t.Fatal("the problem kernel fanned out")
	}
	root, k = newRoot()
	if err := NewPlanner(n).BAHFInto(&want, k, root, n, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	checkPlansIdentical(t, &got, &want)
}
