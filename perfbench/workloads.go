package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bisectlb/internal/service"
	"bisectlb/internal/xrand"
)

// balanceRequest is the request for family at n processors under alg,
// with the instance pinned by seed. The flat families declare their α,
// so their plans can be checked against the paper's guarantee.
func balanceRequest(family string, n int, alg string, seed uint64) service.BalanceRequest {
	r := service.BalanceRequest{Spec: service.ProblemSpec{Family: family, Seed: seed}, N: n, Algorithm: alg}
	switch family {
	case "uniform":
		r.Spec.Weight, r.Spec.Lo, r.Spec.Hi, r.Alpha = 1, 0.1, 0.5, 0.1
	case "fixed":
		// The fixed family's cache key has no seed, so the weight carries it.
		r.Spec.Weight = 1 + float64(seed>>11)*0x1p-53*1e6
		r.Spec.SplitAlpha, r.Alpha = 0.3, 0.3
	case "list":
		r.Spec.Elems = 16*n + int(seed%uint64(n))
		r.Spec.SplitAlpha, r.Alpha = 0.25, 0.25
	case "quadrature":
		r.Spec.Split = "median"
	}
	return r
}

// flatFamily reports whether the service plans a family through the
// flat planner.
func flatFamily(f string) bool { return f == "uniform" || f == "fixed" || f == "list" }

// algorithmsFor lists the algorithms a family is requested with: the flat
// families under all four, the interface families under the two that
// need no declared α.
func algorithmsFor(f string) []string {
	if flatFamily(f) {
		return []string{"HF", "PHF", "BA", "BA-HF"}
	}
	return []string{"HF", "BA"}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode %T: %v", v, err)) // plain structs always encode
	}
	return b
}

// serve-cold: every request has a distinct key. Ops i with i%4 == 3
// rebalance one of the set-up priors with fresh drift factors; the rest
// are balance misses cycling through the families, the family's coldNs
// and its algorithms, each with a fresh instance seed. The composition
// is fixed; the seed draws the instances and drifts.
const (
	// coldWarmOps fills the 1024-entry cache before the window, so the
	// window sees steady eviction.
	coldWarmOps = 1536
	// coldSample is the count of responses, from the window's first op
	// on, that are kept and verified; enough that their ratios' geometric
	// mean moves little with the seed.
	coldSample = 512
	coldPriors = 64
)

// coldNs gives a family's processor counts, at most 1024. Graph, spatial
// and fem instances hold only about 80, 200 and 400 bisectable parts, so
// they are asked for no more: the ratio of a plan with fewer parts than
// processors measures the instance's size, not the planner.
func coldNs(f string) []int {
	switch f {
	case "graph":
		return []int{4, 8, 16, 32}
	case "spatial":
		return []int{8, 16, 32, 64}
	case "fem":
		return []int{16, 32, 64, 128}
	}
	return []int{16, 64, 256, 1024}
}

// coldBalance is serve-cold's balance op i (i%4 != 3).
func coldBalance(seed uint64, i int64) service.BalanceRequest {
	j := i/4*3 + i%4
	f := families[j%int64(len(families))]
	k := j / int64(len(families))
	algs, ns := algorithmsFor(f), coldNs(f)
	n := ns[k%int64(len(ns))]
	alg := algs[(k/int64(len(ns)))%int64(len(algs))]
	return balanceRequest(f, n, alg, xrand.Mix(seed, uint64(i)))
}

// coldPrior is a plan built during set-up for rebalance ops to patch.
type coldPrior struct {
	req service.BalanceRequest
	sig string
	ids []uint64
}

// coldPriorRequest is the balance request of prior p.
func coldPriorRequest(seed uint64, p int) service.BalanceRequest {
	f := []string{"uniform", "fixed", "list"}[p%3]
	n := []int{64, 256, 1024}[(p/3)%3]
	alg := algorithmsFor(f)[(p/9)%4]
	return balanceRequest(f, n, alg, xrand.Mix(seed^0x9e1e, uint64(p)))
}

// coldRebalance is serve-cold's rebalance op i (i%4 == 3): one to four
// parts of a prior drift by factors in [0.2, 20).
func coldRebalance(seed uint64, i int64, priors []coldPrior) service.RebalanceRequest {
	p := &priors[(i/4)%int64(len(priors))]
	rng := xrand.New(xrand.Mix(seed, uint64(i)))
	deltas := make([]service.DriftDelta, 1+rng.Intn(4))
	for d := range deltas {
		deltas[d] = service.DriftDelta{ID: p.ids[rng.Intn(len(p.ids))], Factor: rng.InRange(0.2, 20)}
	}
	return service.RebalanceRequest{
		Spec: p.req.Spec, N: p.req.N, Algorithm: p.req.Algorithm, Alpha: p.req.Alpha, Kappa: p.req.Kappa,
		PriorSignature: p.sig, Deltas: deltas,
	}
}

func runServeCold(o options) (*result, error) {
	var priors []coldPrior
	sample := make([][]byte, coldSample)
	request := func(i int64) (string, []byte, string) {
		if i%4 == 3 {
			req := coldRebalance(o.seed, i, priors)
			return "/v1/rebalance", mustJSON(&req), "rebalance"
		}
		req := coldBalance(o.seed, i)
		return "/v1/balance", mustJSON(&req), req.Spec.Family
	}
	return runServe(o, serveWorkload{
		setUp: func(h *harness) error {
			priors = make([]coldPrior, coldPriors)
			var buf bytes.Buffer
			for p := range priors {
				req := coldPriorRequest(o.seed, p)
				if _, err := h.post("/v1/balance", mustJSON(&req), "", &buf); err != nil {
					return fmt.Errorf("prior %d: %w", p, err)
				}
				var resp service.BalanceResponse
				if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
					return fmt.Errorf("prior %d: decode: %w", p, err)
				}
				ids := make([]uint64, len(resp.Parts))
				for k, pt := range resp.Parts {
					ids[k] = pt.ID
				}
				priors[p] = coldPrior{req: req, sig: resp.Signature, ids: ids}
			}
			return nil
		},
		warmOps:   coldWarmOps,
		request:   request,
		wantCache: "miss",
		keep: func(i int64, body []byte) {
			if s := i - coldWarmOps; s >= 0 && s < coldSample {
				sample[s] = append([]byte(nil), body...)
			}
		},
		premise: func(d delta) error {
			balances := d.counter("service.requests") - d.counter("service.rebalance.requests")
			computed := d.counter("service.plans_computed") - d.counter("service.rebalance.prior_computed")
			if computed != balances {
				return fmt.Errorf("%.0f timed balance requests computed %.0f plans, want one each", balances, computed)
			}
			return nil
		},
		verify: func(h *harness) ([]float64, int64) {
			var ratios []float64
			var failed int64
			var buf bytes.Buffer
			for s, body := range sample {
				i := coldWarmOps + int64(s)
				var r float64
				var err error
				if body == nil {
					// A window shorter than the sample closed before op i.
					path, req, _ := request(i)
					_, err = h.post(path, req, "", &buf)
					body = buf.Bytes()
				}
				switch {
				case err != nil:
				case i%4 == 3:
					req := coldRebalance(o.seed, i, priors)
					r, err = checkRebalance(&req, body)
				default:
					req := coldBalance(o.seed, i)
					r, err = checkBalance(&req, body)
				}
				if err != nil {
					failed++
					say("verify: op %d: %v", i, err)
					continue
				}
				ratios = append(ratios, r)
			}
			return ratios, failed
		},
		layers: func(m metrics, rc *reconciler) error {
			var reqs []service.BalanceRequest
			for s := int64(0); s < coldSample; s++ {
				i := coldWarmOps + s
				if i%4 == 3 {
					continue
				}
				if req := coldBalance(o.seed, i); !flatFamily(req.Spec.Family) {
					reqs = append(reqs, req)
				}
			}
			return ifaceReplay(reqs, m, rc)
		},
	})
}
