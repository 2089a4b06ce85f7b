package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// rebalanceWant pins one served /v1/rebalance result: its outcome, the
// bits of its ratio and a digest of its parts and processor groups.
type rebalanceWant struct {
	outcome string
	ratio   uint64
	parts   string
}

// rebalanceDrifts are the fixed drift sets of the rebalance roster, each
// derived from the prior plan's single-processor parts, heaviest first
// (ties by smaller ID): one part shrunk to 0.2×, four parts grown 20×
// (a patch that repairs by LPT packing wherever the dirty weight stays
// under the full-replan threshold), and one part grown to 10^6× the
// mean, which forces a full replan.
var rebalanceDrifts = []struct {
	name   string
	deltas func(prior *BalanceResponse, heavy []PartPlan) []DriftDelta
}{
	{"shrink", func(_ *BalanceResponse, heavy []PartPlan) []DriftDelta {
		return []DriftDelta{{ID: heavy[0].ID, Factor: 0.2}}
	}},
	{"lpt", func(_ *BalanceResponse, heavy []PartPlan) []DriftDelta {
		var ds []DriftDelta
		for _, p := range heavy[:min(4, len(heavy))] {
			ds = append(ds, DriftDelta{ID: p.ID, Factor: 20})
		}
		return ds
	}},
	{"replan", func(prior *BalanceResponse, heavy []PartPlan) []DriftDelta {
		mean := prior.Total / float64(prior.N)
		return []DriftDelta{{ID: heavy[0].ID, Factor: 1e6 * mean / heavy[0].Weight}}
	}},
}

// rebalanceDigest hashes a rebalanced plan's (id, weight bits, procs,
// depth, group) list and its group processor counts.
func rebalanceDigest(resp *RebalanceResponse) string {
	h := sha256.New()
	var b [40]byte
	for _, p := range resp.Parts {
		binary.LittleEndian.PutUint64(b[0:], p.ID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Weight))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.Procs))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.Depth))
		binary.LittleEndian.PutUint64(b[32:], uint64(p.Group))
		h.Write(b[:])
	}
	for _, g := range resp.Rebalance.GroupProcs {
		binary.LittleEndian.PutUint64(b[0:], uint64(g))
		h.Write(b[:8])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGoldenRebalanceRoster patches plans of the three flat families ×
// HF, BA, BA-HF and PHF at N ∈ {17, 500, 4096} under each drift set and
// requires every result to match the one recorded in
// goldenRebalanceRoster bit for bit. It pins the delta engine's donor
// selection, LPT packing and splice order along with the planner.
func TestGoldenRebalanceRoster(t *testing.T) {
	srv := New(Config{DefaultDeadline: time.Minute})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	post := func(path string, req any) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	seen := 0
	for _, rs := range rosterSpecs[:3] {
		for _, alg := range []string{"HF", "BA", "BA-HF", "PHF"} {
			for _, n := range []int{17, 500, 4096} {
				var prior BalanceResponse
				if err := json.Unmarshal(post("/v1/balance", BalanceRequest{Spec: rs.spec, N: n, Algorithm: alg, Alpha: rs.alpha}), &prior); err != nil {
					t.Fatal(err)
				}
				var heavy []PartPlan
				for _, p := range prior.Parts {
					if p.Procs == 1 {
						heavy = append(heavy, p)
					}
				}
				sort.SliceStable(heavy, func(i, j int) bool { return heavy[i].Weight > heavy[j].Weight })
				for _, d := range rebalanceDrifts {
					name := fmt.Sprintf("%s/%s/n=%d/%s", rs.spec.Family, alg, n, d.name)
					req := RebalanceRequest{Spec: rs.spec, N: n, Algorithm: alg, Alpha: rs.alpha,
						PriorSignature: prior.Signature, Deltas: d.deltas(&prior, heavy)}
					var resp RebalanceResponse
					if err := json.Unmarshal(post("/v1/rebalance", req), &resp); err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					if resp.Rebalance == nil {
						t.Fatalf("%s: response without a rebalance certificate", name)
					}
					got := rebalanceWant{
						outcome: resp.Rebalance.Outcome,
						ratio:   math.Float64bits(resp.Ratio),
						parts:   rebalanceDigest(&resp),
					}
					seen++
					if want, ok := goldenRebalanceRoster[name]; !ok || got != want {
						t.Errorf("%s: rebalance differs from the golden roster\nwant %+v\ngot:\n\t%q: {%q, %#x, %q},",
							name, want, name, got.outcome, got.ratio, got.parts)
					}
				}
			}
		}
	}
	if seen != len(goldenRebalanceRoster) {
		t.Errorf("served %d roster rebalances, golden table holds %d", seen, len(goldenRebalanceRoster))
	}
}

// goldenRebalanceRoster was captured from the planner with the binary
// heap below N = 4096 and the bucket queue at 4096, and the delta
// engine's hand-rolled heap sorts; do not regenerate it to make a change
// pass.
var goldenRebalanceRoster = map[string]rebalanceWant{
	"uniform/HF/n=17/shrink":      {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/HF/n=17/lpt":         {"patched", 0x400fcfc517c96b14, "771f477bae32236c"},
	"uniform/HF/n=17/replan":      {"full_replan", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/HF/n=500/shrink":     {"noop", 0x3ffb7eb9ed00b27d, "7e2cdd2ca552e8ed"},
	"uniform/HF/n=500/lpt":        {"patched", 0x3ff5b7a52fc6f94b, "83835dc4b6018ca0"},
	"uniform/HF/n=500/replan":     {"full_replan", 0x3ffb7eb9ed00b27d, "7e2cdd2ca552e8ed"},
	"uniform/HF/n=4096/shrink":    {"noop", 0x3ffbb74761b28f52, "c0ad1f124b47ad65"},
	"uniform/HF/n=4096/lpt":       {"patched", 0x3ffad001a03091f7, "1528c94e2071264c"},
	"uniform/HF/n=4096/replan":    {"full_replan", 0x3ffbb74761b28f52, "c0ad1f124b47ad65"},
	"uniform/BA/n=17/shrink":      {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA/n=17/lpt":         {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA/n=17/replan":      {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA/n=500/shrink":     {"noop", 0x4004cceda29dc2fe, "9e05675f9b00e8c1"},
	"uniform/BA/n=500/lpt":        {"patched", 0x3ffb379008a14d8e, "0430de2446da3683"},
	"uniform/BA/n=500/replan":     {"full_replan", 0x4004cceda29dc2fe, "9e05675f9b00e8c1"},
	"uniform/BA/n=4096/shrink":    {"noop", 0x400eb536112dce7d, "05442736b7adffc5"},
	"uniform/BA/n=4096/lpt":       {"patched", 0x4005817a48e17d2b, "da36e66391ffa3d4"},
	"uniform/BA/n=4096/replan":    {"full_replan", 0x400eb536112dce7d, "05442736b7adffc5"},
	"uniform/BA-HF/n=17/shrink":   {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA-HF/n=17/lpt":      {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA-HF/n=17/replan":   {"full_replan", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/BA-HF/n=500/shrink":  {"noop", 0x4002dc5f6c617f7d, "d45d595b5b4c6d98"},
	"uniform/BA-HF/n=500/lpt":     {"patched", 0x3ff73cdee1fd0057, "83b214e9c96b983d"},
	"uniform/BA-HF/n=500/replan":  {"full_replan", 0x4002dc5f6c617f7d, "d45d595b5b4c6d98"},
	"uniform/BA-HF/n=4096/shrink": {"noop", 0x4004831bc2730ae3, "74c5bd50def819c3"},
	"uniform/BA-HF/n=4096/lpt":    {"patched", 0x4000fb122617184f, "d8cfe8a193305270"},
	"uniform/BA-HF/n=4096/replan": {"full_replan", 0x4004831bc2730ae3, "74c5bd50def819c3"},
	"uniform/PHF/n=17/shrink":     {"noop", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/PHF/n=17/lpt":        {"patched", 0x400fcfc517c96b14, "771f477bae32236c"},
	"uniform/PHF/n=17/replan":     {"full_replan", 0x3ffc8fdf8615c348, "892db1eeab88b513"},
	"uniform/PHF/n=500/shrink":    {"noop", 0x3ffb7eb9ed00b27d, "7e2cdd2ca552e8ed"},
	"uniform/PHF/n=500/lpt":       {"patched", 0x3ff5b7a52fc6f94b, "83835dc4b6018ca0"},
	"uniform/PHF/n=500/replan":    {"full_replan", 0x3ffb7eb9ed00b27d, "7e2cdd2ca552e8ed"},
	"uniform/PHF/n=4096/shrink":   {"noop", 0x3ffbb74761b28f52, "c0ad1f124b47ad65"},
	"uniform/PHF/n=4096/lpt":      {"patched", 0x3ffad001a03091f7, "1528c94e2071264c"},
	"uniform/PHF/n=4096/replan":   {"full_replan", 0x3ffbb74761b28f52, "c0ad1f124b47ad65"},
	"fixed/HF/n=17/shrink":        {"noop", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/HF/n=17/lpt":           {"full_replan", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/HF/n=17/replan":        {"full_replan", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/HF/n=500/shrink":       {"noop", 0x3ffc282140000000, "c2c6786919c18665"},
	"fixed/HF/n=500/lpt":          {"patched", 0x3ff636ef9b2832b5, "b3da256e84599ef9"},
	"fixed/HF/n=500/replan":       {"full_replan", 0x3ffc282140000000, "c2c6786919c18665"},
	"fixed/HF/n=4096/shrink":      {"noop", 0x3ffb000000000000, "7715e4946762b435"},
	"fixed/HF/n=4096/lpt":         {"patched", 0x3ffa2e2616b21493, "7c686d6392aabb8c"},
	"fixed/HF/n=4096/replan":      {"full_replan", 0x3ffb000000000000, "7715e4946762b435"},
	"fixed/BA/n=17/shrink":        {"noop", 0x4002276000000000, "a7bad35aca9faa63"},
	"fixed/BA/n=17/lpt":           {"noop", 0x4002276000000000, "a7bad35aca9faa63"},
	"fixed/BA/n=17/replan":        {"full_replan", 0x4002276000000000, "a7bad35aca9faa63"},
	"fixed/BA/n=500/shrink":       {"noop", 0x4002c56b80000000, "a56aa425de6c6c78"},
	"fixed/BA/n=500/lpt":          {"patched", 0x3ffbac3b7c1c307a, "b2eaf8ce32e52454"},
	"fixed/BA/n=500/replan":       {"full_replan", 0x4002c56b80000000, "a56aa425de6c6c78"},
	"fixed/BA/n=4096/shrink":      {"noop", 0x400486ba08000000, "0e1f8e5604c9e983"},
	"fixed/BA/n=4096/lpt":         {"patched", 0x400397ee7bbc4c15, "c18a292778977ed7"},
	"fixed/BA/n=4096/replan":      {"full_replan", 0x400486ba08000000, "0e1f8e5604c9e983"},
	"fixed/BA-HF/n=17/shrink":     {"noop", 0x4002276000000000, "a7bad35aca9faa63"},
	"fixed/BA-HF/n=17/lpt":        {"patched", 0x400fb5aa5a5845b5, "ba080e4844e0a174"},
	"fixed/BA-HF/n=17/replan":     {"full_replan", 0x4002276000000000, "a7bad35aca9faa63"},
	"fixed/BA-HF/n=500/shrink":    {"noop", 0x4002c56b80000000, "a56aa425de6c6c78"},
	"fixed/BA-HF/n=500/lpt":       {"patched", 0x3ffbac3b7c1c307a, "b2eaf8ce32e52454"},
	"fixed/BA-HF/n=500/replan":    {"full_replan", 0x4002c56b80000000, "a56aa425de6c6c78"},
	"fixed/BA-HF/n=4096/shrink":   {"noop", 0x400486ba08000000, "0e1f8e5604c9e983"},
	"fixed/BA-HF/n=4096/lpt":      {"patched", 0x400397ee7bbc4c15, "c18a292778977ed7"},
	"fixed/BA-HF/n=4096/replan":   {"full_replan", 0x400486ba08000000, "0e1f8e5604c9e983"},
	"fixed/PHF/n=17/shrink":       {"noop", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/PHF/n=17/lpt":          {"full_replan", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/PHF/n=17/replan":       {"full_replan", 0x3ffcb00000000000, "377a33718c6cf001"},
	"fixed/PHF/n=500/shrink":      {"noop", 0x3ffc282140000000, "c2c6786919c18665"},
	"fixed/PHF/n=500/lpt":         {"patched", 0x3ff636ef9b2832b5, "b3da256e84599ef9"},
	"fixed/PHF/n=500/replan":      {"full_replan", 0x3ffc282140000000, "c2c6786919c18665"},
	"fixed/PHF/n=4096/shrink":     {"noop", 0x3ffb000000000000, "1d5c3736a740de1c"},
	"fixed/PHF/n=4096/lpt":        {"patched", 0x3ffa2e2616b21493, "2db61fe8d496259a"},
	"fixed/PHF/n=4096/replan":     {"full_replan", 0x3ffb000000000000, "1d5c3736a740de1c"},
	"list/HF/n=17/shrink":         {"noop", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/HF/n=17/lpt":            {"full_replan", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/HF/n=17/replan":         {"full_replan", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/HF/n=500/shrink":        {"noop", 0x3ff999999999999a, "93b4c0f91b3e2744"},
	"list/HF/n=500/lpt":           {"patched", 0x3ff44d21cd4eadc6, "1b1d9de7cb548fbd"},
	"list/HF/n=500/replan":        {"full_replan", 0x3ff999999999999a, "93b4c0f91b3e2744"},
	"list/HF/n=4096/shrink":       {"noop", 0x3ffa36e2eb1c432d, "fcd6c796e6becf56"},
	"list/HF/n=4096/lpt":          {"patched", 0x400fcd1e360fe68f, "e7e73d2bd50cb8b6"},
	"list/HF/n=4096/replan":       {"full_replan", 0x3ffa36e2eb1c432d, "fcd6c796e6becf56"},
	"list/BA/n=17/shrink":         {"noop", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA/n=17/lpt":            {"noop", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA/n=17/replan":         {"full_replan", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA/n=500/shrink":        {"noop", 0x4001cccccccccccd, "7e8e63a1dc2983c6"},
	"list/BA/n=500/lpt":           {"patched", 0x3ff7bc75349d2b7f, "45d26dd541a4e7cd"},
	"list/BA/n=500/replan":        {"full_replan", 0x4001cccccccccccd, "7e8e63a1dc2983c6"},
	"list/BA/n=4096/shrink":       {"noop", 0x4003a92a30553261, "af8559ad83dc6fe4"},
	"list/BA/n=4096/lpt":          {"patched", 0x400f6cb27b5db8ae, "94ed1a3b7c83f863"},
	"list/BA/n=4096/replan":       {"full_replan", 0x4003a92a30553261, "af8559ad83dc6fe4"},
	"list/BA-HF/n=17/shrink":      {"noop", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA-HF/n=17/lpt":         {"noop", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA-HF/n=17/replan":      {"full_replan", 0x4001dd14e3bcd35a, "422b92e6901b0b99"},
	"list/BA-HF/n=500/shrink":     {"noop", 0x4001cccccccccccd, "bed2f8d603488e23"},
	"list/BA-HF/n=500/lpt":        {"patched", 0x3ff72938c435debf, "4d2fd08f3d26b763"},
	"list/BA-HF/n=500/replan":     {"full_replan", 0x4001cccccccccccd, "bed2f8d603488e23"},
	"list/BA-HF/n=4096/shrink":    {"noop", 0x400205bc01a36e2f, "3185883a210751fa"},
	"list/BA-HF/n=4096/lpt":       {"patched", 0x400f8a1ef90a042a, "e0d735ec5961e99e"},
	"list/BA-HF/n=4096/replan":    {"full_replan", 0x400205bc01a36e2f, "3185883a210751fa"},
	"list/PHF/n=17/shrink":        {"noop", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/PHF/n=17/lpt":           {"full_replan", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/PHF/n=17/replan":        {"full_replan", 0x3ff7e8a71de69ad4, "00f930685550bbb8"},
	"list/PHF/n=500/shrink":       {"noop", 0x3ff999999999999a, "93b4c0f91b3e2744"},
	"list/PHF/n=500/lpt":          {"patched", 0x3ff44d21cd4eadc6, "1b1d9de7cb548fbd"},
	"list/PHF/n=500/replan":       {"full_replan", 0x3ff999999999999a, "93b4c0f91b3e2744"},
	"list/PHF/n=4096/shrink":      {"noop", 0x3ffa36e2eb1c432d, "fcd6c796e6becf56"},
	"list/PHF/n=4096/lpt":         {"patched", 0x400fcd1e360fe68f, "e7e73d2bd50cb8b6"},
	"list/PHF/n=4096/replan":      {"full_replan", 0x3ffa36e2eb1c432d, "fcd6c796e6becf56"},
}
