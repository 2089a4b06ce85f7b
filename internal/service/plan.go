package service

import (
	"fmt"
	"sync"
	"time"

	"bisectlb"
	"bisectlb/internal/bounds"
	"bisectlb/internal/obs"
)

// PartPlan is one subproblem of a served partition plan.
type PartPlan struct {
	ID     uint64  `json:"id"`
	Weight float64 `json:"weight"`
	Procs  int     `json:"procs"`
	Depth  int     `json:"depth"`
	// Group, on a patched rebalance plan, indexes the processor group
	// this part shares (RebalanceInfo.GroupProcs); absent (0, the first
	// group) outside rebalance responses.
	Group int `json:"group,omitempty"`
}

// Plan is the cacheable body of a balance response: the partition plus
// its quality certificate. Plans are immutable once computed; cached
// plans are shared by reference across responses.
//
// encode.go writes the served JSON of Plan, PartPlan, RebalanceInfo and
// the response types by hand: a field added to any of them must be added
// there and to FuzzPlanJSON's generator.
type Plan struct {
	Algorithm string     `json:"algorithm"`
	N         int        `json:"n"`
	Parts     []PartPlan `json:"parts"`
	Total     float64    `json:"total"`
	Max       float64    `json:"max"`
	// Ratio is the paper's quality measure Max/(Total/N) for this plan.
	Ratio float64 `json:"ratio"`
	// Guarantee is the algorithm's worst-case ratio bound for the
	// declared α (Theorems 2/7/8) — the certificate that makes a cached
	// plan trustworthy without recomputation. Omitted when no α was
	// declared (HF/BA run α-obliviously).
	Guarantee  float64 `json:"guarantee,omitempty"`
	Bisections int     `json:"bisections"`
	MaxDepth   int     `json:"max_depth"`
	// Signature is the short hex digest of the request's canonical key.
	Signature string `json:"signature"`
	// Rebalance carries the patch certificate on plans served by
	// /v1/rebalance (rebalance.go); nil on /v1/balance plans.
	Rebalance *RebalanceInfo `json:"rebalance,omitempty"`

	// flat retains the plan's flat form so /v1/rebalance can patch it
	// without replanning. Set only for plans of patchable families
	// computed on this node — it deliberately does not survive JSON, so
	// peer-fetched and snapshot-restored plans recompute their prior.
	flat *bisectlb.Plan
}

// BalanceResponse wraps a plan with per-request serving metadata.
type BalanceResponse struct {
	Plan
	// Cached is true when the plan was served from the plan cache.
	Cached bool `json:"cached"`
	// Coalesced is true when this request piggybacked on an identical
	// in-flight computation instead of occupying a worker.
	Coalesced bool `json:"coalesced,omitempty"`
}

// plannerScratch pairs a flat planner with its reusable plan buffer;
// pooled so concurrent requests don't contend on one planner and idle
// buffers can be reclaimed. Every pooled planner has GOMAXPROCS workers;
// it fans out only the plans large enough to gain from it (BA and BA-HF
// at N ≥ 2^15), so one pool serves every request.
type plannerScratch struct {
	pl   *bisectlb.Planner
	plan bisectlb.Plan
}

// plannerPool is a pointer so a test can plan on a pool of its own,
// untouched by the scratches other tests return.
var plannerPool = &sync.Pool{New: newPlannerScratch}

func newPlannerScratch() any {
	return &plannerScratch{pl: bisectlb.NewParallelPlanner(0, bisectlb.ParallelOptions{})}
}

// Pool-retention caps.
const (
	// maxPooledPartsCap and maxPooledFootprint bound what a pooled
	// scratch may retain. One N=2^20 request grows a planner's buffers
	// to tens of megabytes; before these caps, Put returned it to the
	// pool anyway and the memory stayed pinned for the process lifetime
	// (sync.Pool only sheds idle entries, and a busy server keeps every
	// scratch hot). Oversized scratches are dropped for the GC instead.
	//
	// The footprint cap follows from the parts cap, so that the largest
	// admitted request keeps its planner, whatever it served before.
	// At N = maxPooledPartsCap an HF plan leaves 57 B per part behind
	// on the calling goroutine's buffers (HF's queue, about one 40 B
	// node slot per queued node, and the 16 B-per-part ID sort); PHF
	// adds its N-node arena, and fanned-out BA and BA-HF plans leave
	// their workers' buffers on top. Measured on amd64 after three
	// rounds of HF, PHF, BA and BA-HF at that N on the uniform, fixed
	// and list kernels, a planner holds 102–104 B per part with one
	// worker, 155–215 B with 2–8 workers and up to 356 B with 64.
	// 448 B per part (28 MiB) keeps all of them.
	maxPooledPartsCap  = 1 << 16
	maxPooledFootprint = 448 * maxPooledPartsCap
)

// putPlannerScratch returns sc to the pool unless an oversized request
// ballooned its retained buffers, in which case it is dropped (counted
// by service.planner_pool.drops) and the next Get builds a fresh one.
func putPlannerScratch(reg *obs.Registry, sc *plannerScratch) {
	if cap(sc.plan.Parts) > maxPooledPartsCap || sc.pl.Footprint() > maxPooledFootprint {
		reg.Counter(mPlannerPoolDrops).Inc()
		return
	}
	reg.Counter(mPlannerPoolPuts).Inc()
	plannerPool.Put(sc)
}

// flatInputs maps a request onto the flat planning facade: the flat
// kernels of uniform, fixed and list, and the problem kernel over the
// built Problem for every other family. Constructor errors are returned
// as they are, so they classify exactly as Balance's would.
func flatInputs(req *BalanceRequest) (bisectlb.FlatNode, bisectlb.Kernel, error) {
	switch req.Spec.Family {
	case "uniform":
		return bisectlb.NewSyntheticFlat(req.Spec.Weight, req.Spec.Lo, req.Spec.Hi, req.Spec.Seed)
	case "fixed":
		return bisectlb.NewFixedFlat(req.Spec.Weight, req.Spec.SplitAlpha)
	case "list":
		return bisectlb.NewListFlat(req.Spec.Elems, req.Spec.SplitAlpha, req.Spec.Seed)
	}
	p, err := req.buildProblem()
	if err != nil {
		return bisectlb.FlatNode{}, nil, err
	}
	return bisectlb.NewProblemFlat(p)
}

// patchable reports whether /v1/rebalance can patch a family's plans:
// only the flat kernels' nodes carry their own state. A problem-kernel
// plan's nodes index an arena that does not outlive the planning call.
func patchable(family string) bool {
	return family == "uniform" || family == "fixed" || family == "list"
}

// computePlan builds the request's root and kernel, plans it on a pooled
// planner (DESIGN.md §10) and maps the flat plan into the served Plan.
// alg must already be parsed from req.Algorithm. Plans of patchable
// families keep their flat form for /v1/rebalance.
func computePlan(req *BalanceRequest, alg bisectlb.Algorithm, sig string, reg *obs.Registry) (*Plan, error) {
	reg.Counter(mPlansComputed).Inc()
	root, k, err := flatInputs(req)
	if err != nil {
		return nil, err
	}
	cfg := bisectlb.Config{Algorithm: alg, Alpha: req.Alpha, Kappa: req.Kappa}
	start := time.Now()
	sc := plannerPool.Get().(*plannerScratch)
	defer putPlannerScratch(reg, sc)
	sizeParts(&sc.plan, req.N)
	sc.pl.SetMetrics(reg)
	if err := bisectlb.BalanceInto(&sc.plan, sc.pl, k, root, req.N, cfg); err != nil {
		return nil, err
	}
	if sc.pl.FannedOut() {
		reg.Counter(mPlannerPoolParallel).Inc()
	}
	reg.Histogram(mComputeNs).ObserveSince(start)
	plan := servePlan(&sc.plan, req, alg, sig)
	if patchable(req.Spec.Family) {
		plan.flat = cloneFlat(&sc.plan)
	}
	return plan, nil
}

// sizeParts gives a pooled plan room for the request's at most n parts
// when the scratch may stay pooled afterwards. Grown by append instead,
// an N = maxPooledPartsCap plan overshoots the parts cap and its scratch
// is dropped. Larger requests are dropped anyway and grow as they go, so
// a huge n over a few indivisible parts does not allocate n parts.
func sizeParts(plan *bisectlb.Plan, n int) {
	if n <= maxPooledPartsCap && cap(plan.Parts) < n {
		plan.Parts = make([]bisectlb.FlatPart, 0, n)
	}
}

// cloneFlat deep-copies a flat plan out of its pooled scratch buffer, so
// the cached served plan can retain it for /v1/rebalance to patch.
func cloneFlat(fp *bisectlb.Plan) *bisectlb.Plan {
	c := *fp
	c.Parts = append([]bisectlb.FlatPart(nil), fp.Parts...)
	return &c
}

// servePlan maps a flat plan into the served Plan, reconstructing
// BA-HF's parameterised display name (the flat plan carries the bare
// name) and attaching the guarantee certificate.
func servePlan(fp *bisectlb.Plan, req *BalanceRequest, alg bisectlb.Algorithm, sig string) *Plan {
	name := fp.Algorithm
	if alg == bisectlb.BAHFAlgorithm {
		name = fmt.Sprintf("BA-HF(κ=%g)", req.Kappa)
	}
	plan := &Plan{
		Algorithm:  name,
		N:          fp.N,
		Parts:      make([]PartPlan, len(fp.Parts)),
		Total:      fp.Total,
		Max:        fp.Max,
		Ratio:      fp.Ratio,
		Guarantee:  guaranteeFor(alg, req.Alpha, req.Kappa, req.N),
		Bisections: fp.Bisections,
		MaxDepth:   fp.MaxDepth,
		Signature:  sig,
	}
	for i, pt := range fp.Parts {
		plan.Parts[i] = PartPlan{
			ID:     pt.Node.ID,
			Weight: pt.Node.Weight,
			Procs:  int(pt.Procs),
			Depth:  int(pt.Node.Depth),
		}
	}
	return plan
}

// guaranteeFor returns the worst-case ratio bound for the algorithm at
// the declared α, or 0 when no α was declared (or the bound is
// undefined for the parameters).
func guaranteeFor(alg bisectlb.Algorithm, alpha, kappa float64, n int) float64 {
	g, err := bounds.Guarantee(alg.String(), alpha, kappa, n)
	if err != nil {
		return 0
	}
	return g
}
