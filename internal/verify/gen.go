package verify

import (
	"fmt"

	"bisectlb/internal/bisect"
	"bisectlb/internal/femtree"
	"bisectlb/internal/graph"
	"bisectlb/internal/quadrature"
	"bisectlb/internal/searchtree"
	"bisectlb/internal/spatial"
	"bisectlb/internal/xrand"
)

// Family selects the problem substrate of a generated instance.
type Family int

const (
	// FamilyUniform is the paper's stochastic model: α̂ ~ U[α, Hi] per
	// bisection, continuous weights (tie-free almost surely).
	FamilyUniform Family = iota
	// FamilyFixed is the adversarial extreme: every bisection splits
	// exactly (1−α, α). Weights collide pervasively, so tie-sensitive
	// identities (PHF ≡ HF) are not checked on it.
	FamilyFixed
	// FamilyList is the concrete list-bisection model with pivot guard α.
	FamilyList
	// FamilyFEM is the adaptive FE-tree substrate; it carries no a-priori
	// α (probe with femtree.ProbeAlpha) and has no flat kernel.
	FamilyFEM
	// FamilyGraph is the real-instance multilevel graph/hypergraph
	// bisector (internal/graph). Its α is emergent: the balance contract
	// guarantees α ≥ (1−ε)/2 per performed bisection, and guarantees are
	// checked against the realized α̂ of the run (r_α̂).
	FamilyGraph
	// FamilySpatial is the real-instance rectangular load-matrix bisector
	// (internal/spatial); cuts meet the declared α, guarantees are
	// checked against the realized α̂ like FamilyGraph.
	FamilySpatial
	// FamilyQuadrature is the adaptive-quadrature substrate (median
	// splits); like FEM it carries no a-priori α.
	FamilyQuadrature
	// FamilySearchTree is the branch-and-bound search-frontier
	// substrate; like FEM it carries no a-priori α.
	FamilySearchTree
	numFamilies
)

// AllFamilies lists every generatable family.
var AllFamilies = []Family{FamilyUniform, FamilyFixed, FamilyList, FamilyFEM, FamilyGraph, FamilySpatial, FamilyQuadrature, FamilySearchTree}

// Measured reports whether the family's bisector quality is emergent —
// guarantee checks use realized-α̂ bounds instead of the class bound.
func (f Family) Measured() bool {
	return f != FamilyUniform && f != FamilyFixed && f != FamilyList
}

func (f Family) String() string {
	switch f {
	case FamilyUniform:
		return "uniform"
	case FamilyFixed:
		return "fixed"
	case FamilyList:
		return "list"
	case FamilyFEM:
		return "fem"
	case FamilyGraph:
		return "graph"
	case FamilySpatial:
		return "spatial"
	case FamilyQuadrature:
		return "quadrature"
	case FamilySearchTree:
		return "searchtree"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// Instance is one generated problem instance plus the algorithm
// parameters to run it with. Every field is plain data: an Instance is
// its own reproduction recipe (String prints it), and Problem/Flat
// materialise the substrate deterministically from it.
type Instance struct {
	Family Family
	// Weight is the root weight (uniform/fixed; lists weigh their length).
	Weight float64
	// Alpha is the declared class parameter: the interval's lower bound
	// for uniform, the exact split for fixed, the pivot guard for list,
	// the balance-contract floor (1−ε)/2 for graph, the cut-acceptance
	// threshold for spatial. Zero for FEM (no a-priori guarantee; probe
	// instead).
	Alpha float64
	// Hi is the α̂ interval's upper bound (uniform only).
	Hi float64
	// Elems is the list length (list only).
	Elems int
	// N is the processor count to partition for.
	N int
	// Kappa is BA-HF's threshold parameter.
	Kappa float64
	// Seed pins the instance for the seeded families.
	Seed uint64
}

// String renders the instance as a one-line reproduction recipe.
func (in Instance) String() string {
	switch in.Family {
	case FamilyUniform:
		return fmt.Sprintf("family=uniform w=%g alpha=%g hi=%g n=%d kappa=%g seed=%d",
			in.Weight, in.Alpha, in.Hi, in.N, in.Kappa, in.Seed)
	case FamilyFixed:
		return fmt.Sprintf("family=fixed w=%g alpha=%g n=%d kappa=%g", in.Weight, in.Alpha, in.N, in.Kappa)
	case FamilyList:
		return fmt.Sprintf("family=list elems=%d alpha=%g n=%d kappa=%g seed=%d",
			in.Elems, in.Alpha, in.N, in.Kappa, in.Seed)
	case FamilyFEM:
		return fmt.Sprintf("family=fem n=%d kappa=%g seed=%d", in.N, in.Kappa, in.Seed)
	case FamilyGraph:
		return fmt.Sprintf("family=graph alpha=%g n=%d kappa=%g seed=%d", in.Alpha, in.N, in.Kappa, in.Seed)
	case FamilySpatial:
		return fmt.Sprintf("family=spatial alpha=%g n=%d kappa=%g seed=%d", in.Alpha, in.N, in.Kappa, in.Seed)
	case FamilyQuadrature, FamilySearchTree:
		return fmt.Sprintf("family=%v n=%d kappa=%g seed=%d", in.Family, in.N, in.Kappa, in.Seed)
	default:
		return fmt.Sprintf("family=%v", in.Family)
	}
}

// Problem materialises the instance's root problem.
func (in Instance) Problem() (bisect.Problem, error) {
	switch in.Family {
	case FamilyUniform:
		return bisect.NewSynthetic(in.Weight, in.Alpha, in.Hi, in.Seed)
	case FamilyFixed:
		return bisect.NewFixed(in.Weight, in.Alpha)
	case FamilyList:
		return bisect.NewList(in.Elems, in.Alpha, in.Seed)
	case FamilyFEM:
		return femtree.NewRegion(femtree.MustGenerate(femtree.DefaultGenConfig(in.Seed))), nil
	case FamilyGraph:
		h, err := GraphInstance(in.Seed)
		if err != nil {
			return nil, err
		}
		return graph.New(h, graph.Config{Seed: in.Seed | 1})
	case FamilySpatial:
		m, err := SpatialInstance(in.Seed)
		if err != nil {
			return nil, err
		}
		return spatial.New(m, spatial.Config{Seed: in.Seed | 1})
	case FamilyQuadrature:
		return quadrature.NewRootBox(quadrature.DefaultIntegrand(in.Seed), quadrature.SplitMedian, 1e-4)
	case FamilySearchTree:
		return searchtree.NewFrontier(searchtree.MustGenerate(searchtree.DefaultGenConfig(in.Seed))), nil
	default:
		return nil, fmt.Errorf("verify: unknown family %v", in.Family)
	}
}

// GraphInstance derives a deterministic real graph/hypergraph instance
// from a seed, rotating through the three generator kinds (mesh, chorded
// ring, random hypergraph). Sizes stay small enough for sweep volume but
// large enough that HF at the sweep's processor counts rarely runs out
// of divisible subproblems.
func GraphInstance(seed uint64) (*graph.Hypergraph, error) {
	r := xrand.New(xrand.Mix(seed, 0x6EA9))
	switch r.Intn(3) {
	case 0:
		return graph.GridGraph(8+r.Intn(13), 8+r.Intn(13), 1+int64(r.Intn(4)), seed)
	case 1:
		return graph.RingGraph(64+r.Intn(192), 16+r.Intn(32), 1+int64(r.Intn(4)), seed)
	default:
		return graph.RandomHypergraph(64+r.Intn(128), 48+r.Intn(96), 3+r.Intn(4), 1+int64(r.Intn(4)), seed)
	}
}

// SpatialInstance derives a deterministic load-matrix instance from a
// seed, rotating through the three generator kinds (uniform, blobs,
// ridge).
func SpatialInstance(seed uint64) (*spatial.Matrix, error) {
	r := xrand.New(xrand.Mix(seed, 0x5A71))
	rows, cols := 10+r.Intn(28), 10+r.Intn(28)
	switch r.Intn(3) {
	case 0:
		return spatial.UniformMatrix(rows, cols, 1+int64(r.Intn(16)), seed)
	case 1:
		return spatial.BlobMatrix(rows, cols, 1+r.Intn(4), 100+int64(r.Intn(4000)), seed)
	default:
		return spatial.RidgeMatrix(rows, cols, 50+int64(r.Intn(400)), seed)
	}
}

// Shrink returns strictly simpler candidate instances, ordered most
// aggressive first. The sweep re-checks each candidate and recurses on
// the first that still fails, converging on a minimal failing instance.
// Simpler means: fewer processors, shorter lists, unit weight, larger α
// (shallower trees), default κ.
func (in Instance) Shrink() []Instance {
	var out []Instance
	add := func(c Instance) {
		if c != in {
			out = append(out, c)
		}
	}
	if in.N > 1 {
		c := in
		c.N = in.N / 2
		add(c)
		c = in
		c.N = in.N - 1
		add(c)
	}
	if in.Family == FamilyList && in.Elems > 8*in.N {
		c := in
		c.Elems = in.Elems / 2
		if c.Elems < 8*c.N {
			c.Elems = 8 * c.N
		}
		add(c)
	}
	if in.Weight != 1 && (in.Family == FamilyUniform || in.Family == FamilyFixed) {
		c := in
		c.Weight = 1
		add(c)
	}
	if in.Kappa != 1 {
		c := in
		c.Kappa = 1
		add(c)
	}
	return out
}

// Processor-count caps of the quadrature and searchtree families. They
// keep a 10 000-instance sweep of all families near a minute on two
// cores; the substrates themselves plan far larger N.
const (
	QuadratureMaxN = 256
	SearchTreeMaxN = 256
)

// Gen draws random instances from a seeded stream. Two Gens built from
// the same seed produce the same sequence; every instance is itself
// reproducible from its printed fields alone.
type Gen struct {
	rng *xrand.Source
	// MaxN caps generated processor counts (default 2048).
	MaxN int
	// Families restricts generation (default AllFamilies).
	Families []Family
}

// NewGen returns a generator seeded with seed.
func NewGen(seed uint64) *Gen {
	return &Gen{rng: xrand.New(xrand.Mix(seed, 0x6E59))}
}

func (g *Gen) maxN() int {
	if g.MaxN > 0 {
		return g.MaxN
	}
	return 2048
}

func (g *Gen) families() []Family {
	if len(g.Families) > 0 {
		return g.Families
	}
	return AllFamilies
}

// Instance draws one random instance. Parameter ranges keep every
// generated instance inside the regime where the paper's guarantees
// apply and stay numerically sound:
//
//   - uniform: α ∈ [0.05, 0.45], hi ≥ α + 0.02 (continuous, tie-free),
//     weight ∈ [1, 10⁶);
//   - fixed: α ∈ [0.05, 0.5];
//   - list: α ∈ [0.05, 1/3] and elems ≥ 8·N, so every list of length ≥ 2
//     stays divisible and indivisible unit leaves stay far below the
//     ideal share (the guarantee presumes bisectable subproblems);
//   - fem: default generated FE-trees with N ≤ 32, small enough that
//     partitions do not run out of divisible regions;
//   - graph: real multilevel-bisector instances (GraphInstance) with
//     N ≤ 8 and class α = (1−ε)/2 from the balance contract;
//   - spatial: real load-matrix instances (SpatialInstance) with N ≤ 12
//     and class α = the cut-acceptance threshold;
//   - quadrature and searchtree: the served default instances with
//     N ≤ QuadratureMaxN and N ≤ SearchTreeMaxN, checked like FEM
//     against their realized α̂.
func (g *Gen) Instance() Instance {
	fams := g.families()
	f := fams[g.rng.Intn(len(fams))]
	in := Instance{
		Family: f,
		Seed:   g.rng.Uint64(),
		Kappa:  0.25 + g.rng.Float64()*3.75,
	}
	switch f {
	case FamilyUniform:
		in.Alpha = g.rng.InRange(0.05, 0.45)
		in.Hi = g.rng.InRange(in.Alpha+0.02, 0.5)
		in.Weight = g.rng.InRange(1, 1e6)
		in.N = 1 + g.rng.Intn(g.maxN())
	case FamilyFixed:
		in.Alpha = g.rng.InRange(0.05, 0.5)
		in.Weight = g.rng.InRange(1, 1e6)
		in.N = 1 + g.rng.Intn(g.maxN())
	case FamilyList:
		in.Alpha = g.rng.InRange(0.05, 1.0/3)
		n := g.maxN()
		if n > 256 {
			n = 256
		}
		in.N = 1 + g.rng.Intn(n)
		in.Elems = 8*in.N + g.rng.Intn(64*in.N)
		in.Weight = float64(in.Elems)
	case FamilyFEM:
		in.N = 1 + g.rng.Intn(32)
	case FamilyGraph:
		// Class α from the balance contract: every performed bisection has
		// α̂ ≥ (1−ε)/2, exactly (integer caps only tighten the band).
		in.Alpha = (1 - graph.DefaultEps) / 2
		in.N = 1 + g.rng.Intn(8)
	case FamilySpatial:
		in.Alpha = spatial.DefaultAlpha
		in.N = 1 + g.rng.Intn(12)
	case FamilyQuadrature:
		in.N = 1 + g.rng.Intn(QuadratureMaxN)
	case FamilySearchTree:
		in.N = 1 + g.rng.Intn(SearchTreeMaxN)
	}
	return in
}

// Speeds draws n positive processor speeds spanning about two orders of
// magnitude, for heterogeneous-machine property tests.
func (g *Gen) Speeds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.rng.InRange(0.1, 10)
	}
	return out
}
