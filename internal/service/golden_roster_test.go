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
	"strings"
	"testing"
	"time"
)

// rosterWant pins one served /v1/balance plan: its summary fields, the
// bits of its ratio and guarantee, a digest of its part list and a
// digest of the whole response body.
type rosterWant struct {
	sig       string
	alg       string
	bis       int
	depth     int
	guarantee uint64
	ratio     uint64
	parts     string
	body      string
}

// rosterSpecs are the eight served families with the α declared for
// each; α is declared on every request so every guarantee is pinned.
var rosterSpecs = []struct {
	spec  ProblemSpec
	alpha float64
}{
	{ProblemSpec{Family: "uniform", Lo: 0.1, Hi: 0.5, Seed: 11}, 0.1},
	{ProblemSpec{Family: "fixed", SplitAlpha: 0.25}, 0.25},
	{ProblemSpec{Family: "list", Elems: 20000, SplitAlpha: 0.2, Seed: 12}, 0.2},
	{ProblemSpec{Family: "fem", Seed: 13}, 0.1},
	{ProblemSpec{Family: "quadrature", Seed: 14}, 0.1},
	{ProblemSpec{Family: "searchtree", Seed: 15}, 0.1},
	{ProblemSpec{Family: "graph", Seed: 16}, 0.1},
	{ProblemSpec{Family: "spatial", Seed: 17}, 0.1},
}

// rosterAlgorithms are the algorithm spellings a request may carry,
// including the parallel-* aliases.
var rosterAlgorithms = []string{"HF", "BA", "BA-HF", "PHF", "parallel-ba", "parallel-phf"}

// rosterNs gives the processor counts one family × algorithm spelling
// is served at. The largest flat families also run at 2^15, where BA
// and BA-HF fan out across the pooled planner's workers; the five
// problem-backed families run BA and BA-HF there too, pinning that
// fan-out cutoff.
func rosterNs(family, alg string) []int {
	switch {
	case family == "uniform" || family == "list":
		return []int{1, 17, 500, 1 << 15}
	case family != "fixed" && (alg == "BA" || alg == "BA-HF"):
		return []int{1, 17, 500, 1 << 15}
	}
	return []int{1, 17, 500}
}

// partsDigest hashes the (id, weight bits, procs, depth) list of a plan.
func partsDigest(parts []PartPlan) string {
	h := sha256.New()
	var b [32]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[0:], p.ID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Weight))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.Procs))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.Depth))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGoldenRoster serves every family × algorithm spelling at a few N
// and requires each plan to match the one recorded in goldenRoster,
// field for field and byte for byte. The table was captured before the
// parallel-* spellings became aliases of BA and PHF, so it also pins
// that the aliases serve exactly the plans the goroutine executors did.
func TestGoldenRoster(t *testing.T) {
	// The 2^15 quadrature plans take seconds under the race detector, so
	// the default 2 s deadline would expire them (and queue the next
	// request behind the abandoned computation).
	srv := New(Config{DefaultDeadline: time.Minute})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	seen := 0
	for _, rs := range rosterSpecs {
		for _, alg := range rosterAlgorithms {
			for _, n := range rosterNs(rs.spec.Family, alg) {
				name := fmt.Sprintf("%s/%s/n=%d", rs.spec.Family, alg, n)
				body, err := json.Marshal(BalanceRequest{Spec: rs.spec, N: n, Algorithm: alg, Alpha: rs.alpha})
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/balance", strings.NewReader(string(body))))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", name, rec.Code, rec.Body.String())
					continue
				}
				var resp BalanceResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				sum := sha256.Sum256(rec.Body.Bytes())
				got := rosterWant{
					sig:       resp.Signature,
					alg:       resp.Algorithm,
					bis:       resp.Bisections,
					depth:     resp.MaxDepth,
					guarantee: math.Float64bits(resp.Guarantee),
					ratio:     math.Float64bits(resp.Ratio),
					parts:     partsDigest(resp.Parts),
					body:      hex.EncodeToString(sum[:8]),
				}
				seen++
				if want, ok := goldenRoster[name]; !ok || got != want {
					t.Errorf("%s: plan differs from the golden roster\nwant %+v\ngot:\n\t%q: {%q, %q, %d, %d, %#x, %#x, %q, %q},",
						name, want, name, got.sig, got.alg, got.bis, got.depth, got.guarantee, got.ratio, got.parts, got.body)
				}
			}
		}
	}
	if seen != len(goldenRoster) {
		t.Errorf("served %d roster plans, golden table holds %d", seen, len(goldenRoster))
	}
}

// goldenRoster was captured from the goroutine-executor implementation
// of parallel-ba and parallel-phf, and its 2^15 rows for fem,
// quadrature, searchtree, graph and spatial from the Problem-interface
// recursions those families were planned by; do not regenerate it to
// make a change pass.
var goldenRoster = map[string]rosterWant{
	"uniform/HF/n=1":                {"855b2aec96aac816", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "a95fadcac9d9e741", "4e347f699157e3c2"},
	"uniform/HF/n=17":               {"d4bc1e7e2fe74f7", "HF", 16, 6, 0x401137fbf68603bc, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "93a3c37054ff5395"},
	"uniform/HF/n=500":              {"10b2a3b70ebcce6a", "HF", 499, 16, 0x401137fbf68603bc, 0x3ffb7eb9ed00b27d, "f909b6099777efdb", "dc6eec2fe19f08c1"},
	"uniform/HF/n=32768":            {"80af7d50c9dbdd37", "HF", 32767, 29, 0x401137fbf68603bc, 0x3ffbba98462acd74, "a5fc8477620fba8e", "88053e5e496c6fa2"},
	"uniform/BA/n=1":                {"fe934ad135fdf19d", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "a95fadcac9d9e741", "b8ca0ed693b2a980"},
	"uniform/BA/n=17":               {"d39db07a0b731294", "BA", 16, 6, 0x4031d5ab6e495ac3, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "f7e85fe97e66d65c"},
	"uniform/BA/n=500":              {"3fd02d8154aa03c9", "BA", 499, 15, 0x4031d5ab6e495ac3, 0x4004cceda29dc2fe, "70a2e759628b861a", "9386f303077eb742"},
	"uniform/BA/n=32768":            {"e9786b66aa5333d4", "BA", 32767, 29, 0x4031d5ab6e495ac3, 0x400af2c55d0b6a40, "eec2add33eb61bc1", "0c5dfdd89933f229"},
	"uniform/BA-HF/n=1":             {"ab8ee4f234047bae", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "a95fadcac9d9e741", "19d15ab027472424"},
	"uniform/BA-HF/n=17":            {"f4f3f25f5efb279", "BA-HF(κ=1)", 16, 6, 0x40252cf2241c6f8c, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "f877f8400072d479"},
	"uniform/BA-HF/n=500":           {"628fa83dc26ea6f2", "BA-HF(κ=1)", 499, 16, 0x40252cf2241c6f8c, 0x4002dc5f6c617f7d, "ab70bfa445ebb181", "62d07b8021ee1237"},
	"uniform/BA-HF/n=32768":         {"fb64703324ca6839", "BA-HF(κ=1)", 32767, 29, 0x40252cf2241c6f8c, 0x400653a933a273e6, "9f84742433d68ea8", "1b5dea15003d3a53"},
	"uniform/PHF/n=1":               {"a67bd746582d1c4e", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "a95fadcac9d9e741", "a0e001afd9e884c3"},
	"uniform/PHF/n=17":              {"5479387d7ed35f5", "PHF", 16, 6, 0x401137fbf68603bc, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "f98aba960a18931c"},
	"uniform/PHF/n=500":             {"1d60ffc8fe71967a", "PHF", 499, 16, 0x401137fbf68603bc, 0x3ffb7eb9ed00b27d, "f909b6099777efdb", "651f24351680da02"},
	"uniform/PHF/n=32768":           {"429c7a6b6b37e435", "PHF", 32767, 29, 0x401137fbf68603bc, 0x3ffbba98462acd74, "a5fc8477620fba8e", "203be209ae90d198"},
	"uniform/parallel-ba/n=1":       {"3184c66f161d3167", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "a95fadcac9d9e741", "061fc9fb9394ce24"},
	"uniform/parallel-ba/n=17":      {"889ea61729b99d1c", "BA", 16, 6, 0x4031d5ab6e495ac3, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "9cb00e15c657be6c"},
	"uniform/parallel-ba/n=500":     {"4831d6bd70f0e893", "BA", 499, 15, 0x4031d5ab6e495ac3, 0x4004cceda29dc2fe, "70a2e759628b861a", "372b078f345c2f08"},
	"uniform/parallel-ba/n=32768":   {"512d3491430a1cdc", "BA", 32767, 29, 0x4031d5ab6e495ac3, 0x400af2c55d0b6a40, "eec2add33eb61bc1", "70cf6530f5b1c61a"},
	"uniform/parallel-phf/n=1":      {"e75cb82c432a30fc", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "a95fadcac9d9e741", "8926f3dbf0a8cac3"},
	"uniform/parallel-phf/n=17":     {"15e5e093f3aa989d", "PHF", 16, 6, 0x401137fbf68603bc, 0x3ffc8fdf8615c348, "2e45df994f8b267a", "cc7913b8864041d9"},
	"uniform/parallel-phf/n=500":    {"897849202f858fa8", "PHF", 499, 16, 0x401137fbf68603bc, 0x3ffb7eb9ed00b27d, "f909b6099777efdb", "f6553f1184b8fa82"},
	"uniform/parallel-phf/n=32768":  {"2feb5e01ddc6a65d", "PHF", 32767, 29, 0x401137fbf68603bc, 0x3ffbba98462acd74, "a5fc8477620fba8e", "9c10b204836b4cc7"},
	"fixed/HF/n=1":                  {"bc506857489b5e52", "HF", 0, 0, 0x4002000000000000, 0x3ff0000000000000, "ba09c85e8726f5c6", "f7e94cdadbcdae5a"},
	"fixed/HF/n=17":                 {"900106411f05e765", "HF", 16, 8, 0x4002000000000000, 0x3ffcb00000000000, "499c1bd8e3fa983f", "55784b2c0410eb43"},
	"fixed/HF/n=500":                {"a695d654f7b86126", "HF", 499, 20, 0x4002000000000000, 0x3ffc282140000000, "7ce435591abdb219", "be40e58241e1ced0"},
	"fixed/BA/n=1":                  {"18e8776c89a27b3", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "ba09c85e8726f5c6", "b28f2ca419403558"},
	"fixed/BA/n=17":                 {"3347fc3a5f2edec8", "BA", 16, 7, 0x40204f47e84f418f, 0x4002276000000000, "ee78f74a5ebe31d0", "f1cdcda47ee41bf9"},
	"fixed/BA/n=500":                {"f1a244ba286cfeff", "BA", 499, 19, 0x40204f47e84f418f, 0x4002c56b80000000, "6b2a4507b598fd1f", "25a48c2acfdd941d"},
	"fixed/BA-HF/n=1":               {"6ee565c4c4d9ce2a", "BA-HF(κ=1)", 0, 0, 0x40130d916af4d897, 0x3ff0000000000000, "ba09c85e8726f5c6", "a431bb09a0c3c09a"},
	"fixed/BA-HF/n=17":              {"7aa207c515099d7", "BA-HF(κ=1)", 16, 7, 0x40130d916af4d897, 0x4002276000000000, "ee78f74a5ebe31d0", "f1be68784ead4fb4"},
	"fixed/BA-HF/n=500":             {"de19e37a48d506e", "BA-HF(κ=1)", 499, 19, 0x40130d916af4d897, 0x4002c56b80000000, "6b2a4507b598fd1f", "d09aefaf1afaed15"},
	"fixed/PHF/n=1":                 {"8cb8eace7bd29de6", "PHF", 0, 0, 0x4002000000000000, 0x3ff0000000000000, "ba09c85e8726f5c6", "d6069cf07d498263"},
	"fixed/PHF/n=17":                {"866135fc319f85f", "PHF", 16, 8, 0x4002000000000000, 0x3ffcb00000000000, "499c1bd8e3fa983f", "e68e2e0ca74dda90"},
	"fixed/PHF/n=500":               {"80d1fbd7bf7c5b02", "PHF", 499, 20, 0x4002000000000000, 0x3ffc282140000000, "7ce435591abdb219", "97aace6678607399"},
	"fixed/parallel-ba/n=1":         {"547989e84490b8cd", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "ba09c85e8726f5c6", "1ec366b7523a5628"},
	"fixed/parallel-ba/n=17":        {"2261ea9fd5751448", "BA", 16, 7, 0x40204f47e84f418f, 0x4002276000000000, "ee78f74a5ebe31d0", "0485ff49e2950cf6"},
	"fixed/parallel-ba/n=500":       {"8039ca90ed591039", "BA", 499, 19, 0x40204f47e84f418f, 0x4002c56b80000000, "6b2a4507b598fd1f", "bcc7f237208c983f"},
	"fixed/parallel-phf/n=1":        {"af24fe2cd2e22cdc", "PHF", 0, 0, 0x4002000000000000, 0x3ff0000000000000, "ba09c85e8726f5c6", "3715804ecadd7b9f"},
	"fixed/parallel-phf/n=17":       {"97aba9c7bc66e0df", "PHF", 16, 8, 0x4002000000000000, 0x3ffcb00000000000, "499c1bd8e3fa983f", "0ac15869f9833e69"},
	"fixed/parallel-phf/n=500":      {"203ba20b91b0f868", "PHF", 499, 20, 0x4002000000000000, 0x3ffc282140000000, "7ce435591abdb219", "8a6ead00800a2038"},
	"list/HF/n=1":                   {"a26b89e9a192aab6", "HF", 0, 0, 0x40047ae147ae147c, 0x3ff0000000000000, "2ec35bfe589f2a48", "dc16db939de3bcb0"},
	"list/HF/n=17":                  {"b2e6fd9e426332ed", "HF", 16, 8, 0x40047ae147ae147c, 0x3ff7e8a71de69ad4, "a6a21a72b2392ce2", "dffabb472ac90a5b"},
	"list/HF/n=500":                 {"41935cad9ee5dd02", "HF", 499, 16, 0x40047ae147ae147c, 0x3ff999999999999a, "c88f8ff48c34bf0b", "7a5c17f4047463d6"},
	"list/HF/n=32768":               {"92b6909fd7973f0f", "HF", 19999, 24, 0x40047ae147ae147c, 0x3ffa36e2eb1c432d, "2456c353afbc83aa", "cb742dea0286c028"},
	"list/BA/n=1":                   {"288bbfdae7ee8b9", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "2ec35bfe589f2a48", "e0d7777c40add7b6"},
	"list/BA/n=17":                  {"a84d858c32dc9bc6", "BA", 16, 6, 0x402165a208dd12bb, 0x4001dd14e3bcd35a, "505fe787bf5b58c4", "04f2a8e5f70f7994"},
	"list/BA/n=500":                 {"561b30554e458c9d", "BA", 499, 15, 0x402165a208dd12bb, 0x4001cccccccccccd, "4ddcac36ca296ef0", "d1a74ae6b78a674b"},
	"list/BA/n=32768":               {"f3c862fe52e5be90", "BA", 19999, 24, 0x402165a208dd12bb, 0x3ffa36e2eb1c432d, "dede21a64d2fe0ef", "01382c303af84fb7"},
	"list/BA-HF/n=1":                {"e698e1ad693fd194", "BA-HF(κ=1)", 0, 0, 0x4016ca1f3c26c12b, 0x3ff0000000000000, "2ec35bfe589f2a48", "7d744d52fb5f9e0a"},
	"list/BA-HF/n=17":               {"75332d52392b77e5", "BA-HF(κ=1)", 16, 6, 0x4016ca1f3c26c12b, 0x4001dd14e3bcd35a, "505fe787bf5b58c4", "b696f4a74f3ae95e"},
	"list/BA-HF/n=500":              {"43fe4480fb6d8270", "BA-HF(κ=1)", 499, 16, 0x4016ca1f3c26c12b, 0x4001cccccccccccd, "ee1237d1421fb544", "61675fa39127dd39"},
	"list/BA-HF/n=32768":            {"d4a08fe7fe4bbb97", "BA-HF(κ=1)", 19999, 24, 0x4016ca1f3c26c12b, 0x3ffa36e2eb1c432d, "77fb59585d7f6466", "0c52798b4c838cc0"},
	"list/PHF/n=1":                  {"494d91e90f780a78", "PHF", 0, 0, 0x40047ae147ae147c, 0x3ff0000000000000, "2ec35bfe589f2a48", "cc2a94e4ecdee716"},
	"list/PHF/n=17":                 {"38cdedc0a45f2d89", "PHF", 16, 8, 0x40047ae147ae147c, 0x3ff7e8a71de69ad4, "a6a21a72b2392ce2", "363b057ebf9b336a"},
	"list/PHF/n=500":                {"4b90d9cb7774141c", "PHF", 499, 16, 0x40047ae147ae147c, 0x3ff999999999999a, "c88f8ff48c34bf0b", "aacfe4141c4d647b"},
	"list/PHF/n=32768":              {"5f2bda413f79d38f", "PHF", 19999, 24, 0x40047ae147ae147c, 0x3ffa36e2eb1c432d, "2456c353afbc83aa", "170675050dbf50cf"},
	"list/parallel-ba/n=1":          {"8fde74c93ea15301", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "2ec35bfe589f2a48", "ae26cc5887a22f98"},
	"list/parallel-ba/n=17":         {"7556632ed84728a4", "BA", 16, 6, 0x402165a208dd12bb, 0x4001dd14e3bcd35a, "505fe787bf5b58c4", "57242356f937aa61"},
	"list/parallel-ba/n=500":        {"f58253539ae59135", "BA", 499, 15, 0x402165a208dd12bb, 0x4001cccccccccccd, "4ddcac36ca296ef0", "084a916212fdbc23"},
	"list/parallel-ba/n=32768":      {"7567d4ccd9b47e1e", "BA", 19999, 24, 0x402165a208dd12bb, 0x3ffa36e2eb1c432d, "dede21a64d2fe0ef", "fad7d00458255da2"},
	"list/parallel-phf/n=1":         {"4e2ba62b757c91a0", "PHF", 0, 0, 0x40047ae147ae147c, 0x3ff0000000000000, "2ec35bfe589f2a48", "820f20b51bb8eb46"},
	"list/parallel-phf/n=17":        {"1a9e0cc6cfe1e483", "PHF", 16, 8, 0x40047ae147ae147c, 0x3ff7e8a71de69ad4, "a6a21a72b2392ce2", "12be53913cd1a66c"},
	"list/parallel-phf/n=500":       {"e5b9748048c7e454", "PHF", 499, 16, 0x40047ae147ae147c, 0x3ff999999999999a, "c88f8ff48c34bf0b", "3469327e7a4fe6a4"},
	"list/parallel-phf/n=32768":     {"421e3cd6b681c21", "PHF", 19999, 24, 0x40047ae147ae147c, 0x3ffa36e2eb1c432d, "2456c353afbc83aa", "ac0f26b74411a6d0"},
	"fem/HF/n=1":                    {"e1b6a253156e16e3", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "13f8f2ca9afcb719", "802d335a22c2be7f"},
	"fem/HF/n=17":                   {"8f3bae05907dea8c", "HF", 16, 5, 0x401137fbf68603bc, 0x3ff67498003b67c6, "360eb286b2e43f66", "aa5a2c058c6a88e1"},
	"fem/HF/n=500":                  {"ab31ce3b0483512f", "HF", 364, 11, 0x401137fbf68603bc, 0x4000c58ab8e6b47c, "2f2817666e51574f", "3e631ce8aaef2c78"},
	"fem/BA/n=1":                    {"b1a37c3860766738", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "13f8f2ca9afcb719", "01400fdfb590e0a9"},
	"fem/BA/n=17":                   {"1873a5cc0bad51f3", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff6d0aee12e3e65, "66d3e1f725ec03d4", "27d182fc5b38d26a"},
	"fem/BA/n=500":                  {"5493f20b61bb187c", "BA", 360, 11, 0x4031d5ab6e495ac3, 0x4000c58ab8e6b47c, "9003bd2d7c4c4f82", "13d5647f4477cdcc"},
	"fem/BA/n=32768":                {"db5c963f86bab271", "BA", 364, 11, 0x4031d5ab6e495ac3, 0x40612c963e5ce1c6, "6687f65fea1d8ab3", "e4c33f829ea92032"},
	"fem/BA-HF/n=1":                 {"9476c9b89814bed5", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "13f8f2ca9afcb719", "ddf2b67c3dcae009"},
	"fem/BA-HF/n=17":                {"177d5055b2104664", "BA-HF(κ=1)", 16, 5, 0x40252cf2241c6f8c, 0x3ff67498003b67c6, "360eb286b2e43f66", "76ca8ac818f14cec"},
	"fem/BA-HF/n=500":               {"91c677f9d3fbce51", "BA-HF(κ=1)", 364, 11, 0x40252cf2241c6f8c, 0x4000c58ab8e6b47c, "2f2817666e51574f", "3bc8a06f486673e0"},
	"fem/BA-HF/n=32768":             {"8e103750fa52800a", "BA-HF(κ=1)", 364, 11, 0x40252cf2241c6f8c, 0x40612c963e5ce1c6, "6687f65fea1d8ab3", "a0460a6720b64b85"},
	"fem/PHF/n=1":                   {"7594c1e1ad0a9ef9", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "13f8f2ca9afcb719", "2962d8bf9a0475bf"},
	"fem/PHF/n=17":                  {"38f9cf76b9468448", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff67498003b67c6, "360eb286b2e43f66", "b40ae7c3889a2b8c"},
	"fem/PHF/n=500":                 {"f41a6a2cdc04ef3d", "PHF", 338, 11, 0x401137fbf68603bc, 0x4000c58ab8e6b47c, "0566701f76defcae", "b97bb6898a97dec7"},
	"fem/parallel-ba/n=1":           {"62eb715477240460", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "13f8f2ca9afcb719", "6fecabbbb6f3403c"},
	"fem/parallel-ba/n=17":          {"ee712de4134f1b25", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff6d0aee12e3e65, "66d3e1f725ec03d4", "12115bfb23ce3a84"},
	"fem/parallel-ba/n=500":         {"f69c23893e3ba1f4", "BA", 360, 11, 0x4031d5ab6e495ac3, 0x4000c58ab8e6b47c, "9003bd2d7c4c4f82", "fbe0749dd038fc51"},
	"fem/parallel-phf/n=1":          {"9b34d0df75137b41", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "13f8f2ca9afcb719", "9dccc93fb3945825"},
	"fem/parallel-phf/n=17":         {"a672b50a32444bd6", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff67498003b67c6, "360eb286b2e43f66", "25eb645b0c03de51"},
	"fem/parallel-phf/n=500":        {"9149a7a0b37f7095", "PHF", 338, 11, 0x401137fbf68603bc, 0x4000c58ab8e6b47c, "0566701f76defcae", "a9f95752a6e95e93"},
	"quadrature/HF/n=1":             {"60a4eaed1ea7b93c", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "1271155665d44008", "60a9a6ba8653a6a9"},
	"quadrature/HF/n=17":            {"f83a379fbb6f6bd5", "HF", 16, 5, 0x401137fbf68603bc, 0x3ff119656845d8b5, "90c616d933529c5f", "de8d3d4933262696"},
	"quadrature/HF/n=500":           {"e624faa31a2d5d68", "HF", 499, 9, 0x401137fbf68603bc, 0x3ffee40bb8e1d665, "5be3d0689dd0b124", "54fafa6b87268fb0"},
	"quadrature/BA/n=1":             {"c3d9616dd8d36b63", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "1271155665d44008", "ac810cdc64cca162"},
	"quadrature/BA/n=17":            {"5f53cdbf9c6d49a2", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff119656845d8b5, "90c616d933529c5f", "d344d3cd8721d04d"},
	"quadrature/BA/n=500":           {"8059ab65b72ebce7", "BA", 499, 9, 0x4031d5ab6e495ac3, 0x3fff4625c7c88682, "cc8528687717f22e", "2ce5488806bf62c3"},
	"quadrature/BA/n=32768":         {"7241272f15d8183a", "BA", 32767, 16, 0x4031d5ab6e495ac3, 0x3ffff3194fd0c070, "40a054291760e6c8", "fd51868640b31c79"},
	"quadrature/BA-HF/n=1":          {"7d307b60dc9965b4", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "1271155665d44008", "17c7a2f6bd51f235"},
	"quadrature/BA-HF/n=17":         {"d4184816295bcdff", "BA-HF(κ=1)", 16, 5, 0x40252cf2241c6f8c, 0x3ff119656845d8b5, "90c616d933529c5f", "70a0a45480353c64"},
	"quadrature/BA-HF/n=500":        {"2a953e8fe0305c70", "BA-HF(κ=1)", 499, 9, 0x40252cf2241c6f8c, 0x3fff4625c7c88682, "bd061bcc5d0574ac", "bbed9cbcc964e17a"},
	"quadrature/BA-HF/n=32768":      {"7492a895691c89a7", "BA-HF(κ=1)", 32767, 16, 0x40252cf2241c6f8c, 0x3ffff3194fd0c070, "3286ced3822a973d", "83f63e30fcdd8a7a"},
	"quadrature/PHF/n=1":            {"5c6d9a2f57384238", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "1271155665d44008", "2e05412ca2b06a75"},
	"quadrature/PHF/n=17":           {"f9ae3416d5b4d88f", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff119656845d8b5, "90c616d933529c5f", "f537c2b85b9f1b92"},
	"quadrature/PHF/n=500":          {"eca9473ff3fa3b7c", "PHF", 499, 9, 0x401137fbf68603bc, 0x3ffee40bb8e1d665, "5be3d0689dd0b124", "06a81613c5bbc2c7"},
	"quadrature/parallel-ba/n=1":    {"71918a6ae9fdb435", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "1271155665d44008", "512e0913223525f9"},
	"quadrature/parallel-ba/n=17":   {"53429de6a65effd2", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff119656845d8b5, "90c616d933529c5f", "74d95b0215124c61"},
	"quadrature/parallel-ba/n=500":  {"bea9e747347883b9", "BA", 499, 9, 0x4031d5ab6e495ac3, 0x3fff4625c7c88682, "cc8528687717f22e", "16c72940c94f0438"},
	"quadrature/parallel-phf/n=1":   {"a326d2ef73b9a066", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "1271155665d44008", "4f02f03f68eecbc3"},
	"quadrature/parallel-phf/n=17":  {"42f1521efea7703f", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff119656845d8b5, "90c616d933529c5f", "005941a4a3da795a"},
	"quadrature/parallel-phf/n=500": {"4033a49c7da8dfea", "PHF", 499, 9, 0x401137fbf68603bc, 0x3ffee40bb8e1d665, "5be3d0689dd0b124", "724906f048a62c93"},
	"searchtree/HF/n=1":             {"fce2837fd478969", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "2878cbedfa10ee5a", "0da88a44bec6c638"},
	"searchtree/HF/n=17":            {"387e29df4ffa4f2a", "HF", 16, 5, 0x401137fbf68603bc, 0x3fffe5839fb86aa9, "1bd28ed775c12e24", "edb519372f40a852"},
	"searchtree/HF/n=500":           {"16c22cad256ac10d", "HF", 499, 16, 0x401137fbf68603bc, 0x4002dfe080d99d09, "8cb86a7bb5db4a34", "de886caeb46b2730"},
	"searchtree/BA/n=1":             {"db104fa70421965e", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "2878cbedfa10ee5a", "d314a5a5e5bace59"},
	"searchtree/BA/n=17":            {"9fbd5598b2f42a89", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x4003c66019c51f69, "74ab1b344f12eedd", "3630cf01fbf060e2"},
	"searchtree/BA/n=500":           {"6c760cab9e27eb6a", "BA", 499, 15, 0x4031d5ab6e495ac3, 0x40106d85c57b08ae, "b4dd2b2b11daf37a", "b9fef3985a789fde"},
	"searchtree/BA/n=32768":         {"f70025c6a949b28f", "BA", 5721, 23, 0x4031d5ab6e495ac3, 0x4016e81beae20643, "3346849acdacd592", "efa184ddfbfc15f1"},
	"searchtree/BA-HF/n=1":          {"634dcfefcda8f353", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "2878cbedfa10ee5a", "5b4c1e3919eb75f1"},
	"searchtree/BA-HF/n=17":         {"d4530c068cec6b32", "BA-HF(κ=1)", 16, 5, 0x40252cf2241c6f8c, 0x4002165eab4360ba, "fe20172531695a50", "6ea4f26bd87c9786"},
	"searchtree/BA-HF/n=500":        {"c629247a79f41d77", "BA-HF(κ=1)", 499, 16, 0x40252cf2241c6f8c, 0x400ec22b7ca4ffe8, "d907b08c6b8b3e4d", "d166db795405f2ed"},
	"searchtree/BA-HF/n=32768":      {"35f425021cfb8ac8", "BA-HF(κ=1)", 5721, 23, 0x40252cf2241c6f8c, 0x4016e81beae20643, "ee0b87b4630d1508", "3e293a69ff7b3129"},
	"searchtree/PHF/n=1":            {"c72cac95d2af2ceb", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "2878cbedfa10ee5a", "773f6fe763afaf93"},
	"searchtree/PHF/n=17":           {"3a8497854cd353a", "PHF", 16, 5, 0x401137fbf68603bc, 0x3fffe5839fb86aa9, "1bd28ed775c12e24", "3a5a436935ee24e5"},
	"searchtree/PHF/n=500":          {"adc576e17a576c77", "PHF", 499, 16, 0x401137fbf68603bc, 0x4002dfe080d99d09, "8cb86a7bb5db4a34", "1033061d7a23c8fd"},
	"searchtree/parallel-ba/n=1":    {"238e5db8538ac57e", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "2878cbedfa10ee5a", "8e66ec5bbfebab59"},
	"searchtree/parallel-ba/n=17":   {"636da3a8cb4fefd3", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x4003c66019c51f69, "74ab1b344f12eedd", "811aad88853e0114"},
	"searchtree/parallel-ba/n=500":  {"63ff41d43bb6c1ca", "BA", 499, 15, 0x4031d5ab6e495ac3, 0x40106d85c57b08ae, "b4dd2b2b11daf37a", "2dd01927dfcecd59"},
	"searchtree/parallel-phf/n=1":   {"ca80f177909b5ecb", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "2878cbedfa10ee5a", "a07c154de55ac6ee"},
	"searchtree/parallel-phf/n=17":  {"d46ab8754d9226e8", "PHF", 16, 5, 0x401137fbf68603bc, 0x3fffe5839fb86aa9, "1bd28ed775c12e24", "95e14c64f41482b0"},
	"searchtree/parallel-phf/n=500": {"d007bc441df95597", "PHF", 499, 16, 0x401137fbf68603bc, 0x4002dfe080d99d09, "8cb86a7bb5db4a34", "5a822036a7dcb1b0"},
	"graph/HF/n=1":                  {"c85895e97684e80a", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "bbb8ac945e93b3b9", "79779a41ed07be1e"},
	"graph/HF/n=17":                 {"31c4c28e01fcb01b", "HF", 16, 5, 0x401137fbf68603bc, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "f4b62a711f4ab7f2"},
	"graph/HF/n=500":                {"efbfa9452cc26186", "HF", 132, 9, 0x401137fbf68603bc, 0x402a7d74fae9f5d4, "313247062a4a0579", "b1d97c67e4cf2ecc"},
	"graph/BA/n=1":                  {"9ba09f3775e74469", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "bbb8ac945e93b3b9", "05b7434de4cf6482"},
	"graph/BA/n=17":                 {"ce766205be6932a0", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "17ffeddd7eb9f513"},
	"graph/BA/n=500":                {"47f13677d943964d", "BA", 132, 9, 0x4031d5ab6e495ac3, 0x402a7d74fae9f5d4, "44d2c9feecbbf482", "3bd520d7dce87281"},
	"graph/BA/n=32768":              {"ecbd9b25441e1510", "BA", 132, 9, 0x4031d5ab6e495ac3, 0x408b2036406c80d9, "f3b17f2a055f06cf", "50d862ae9ce607ed"},
	"graph/BA-HF/n=1":               {"10d53638feda512", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "bbb8ac945e93b3b9", "4f3258c498160add"},
	"graph/BA-HF/n=17":              {"3b37af91318311ed", "BA-HF(κ=1)", 16, 5, 0x40252cf2241c6f8c, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "1bf5869181ed403a"},
	"graph/BA-HF/n=500":             {"b0975ddfd09814be", "BA-HF(κ=1)", 132, 9, 0x40252cf2241c6f8c, 0x402a7d74fae9f5d4, "0b06be0a82516990", "9e90e92c481e803f"},
	"graph/BA-HF/n=32768":           {"d7f9306ac855cebd", "BA-HF(κ=1)", 132, 9, 0x40252cf2241c6f8c, 0x408b2036406c80d9, "f3b17f2a055f06cf", "7af6888a5a0e1c09"},
	"graph/PHF/n=1":                 {"ecf635426e7da7da", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "bbb8ac945e93b3b9", "31db1778c9e6d6fa"},
	"graph/PHF/n=17":                {"9234b306e747d281", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "c0b4e2a18e00bb67"},
	"graph/PHF/n=500":               {"42db41097f9de33e", "PHF", 121, 8, 0x401137fbf68603bc, 0x402a7d74fae9f5d4, "83c865e8cd5a0045", "8594865a0f5724af"},
	"graph/parallel-ba/n=1":         {"6dba21a73aad733", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "bbb8ac945e93b3b9", "64c6bae8a070eb8f"},
	"graph/parallel-ba/n=17":        {"6cf18274bf5fb438", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "59c204e8f9d4a21a"},
	"graph/parallel-ba/n=500":       {"138c47be533109b7", "BA", 132, 9, 0x4031d5ab6e495ac3, 0x402a7d74fae9f5d4, "44d2c9feecbbf482", "0df1fe4401a731d6"},
	"graph/parallel-phf/n=1":        {"6bec84de00818b88", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "bbb8ac945e93b3b9", "f328636b3fcef756"},
	"graph/parallel-phf/n=17":       {"a4765a76f37875f9", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff443d087a10f42, "c0b3dd91d76188bc", "dafb95085b631352"},
	"graph/parallel-phf/n=500":      {"4df7cde944117c8c", "PHF", 121, 8, 0x401137fbf68603bc, 0x402a7d74fae9f5d4, "83c865e8cd5a0045", "31a8870b4b3f5ac3"},
	"spatial/HF/n=1":                {"2fb0a2da5ccc0fd7", "HF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "777f70c21982084a", "ad03a646a8e2c849"},
	"spatial/HF/n=17":               {"89fbdca1afa323d0", "HF", 16, 5, 0x401137fbf68603bc, 0x3ff38435b5cc931a, "94e9ae39ac0718d9", "40f9081b36137cb4"},
	"spatial/HF/n=500":              {"d4a1d22408d7f46b", "HF", 499, 12, 0x401137fbf68603bc, 0x4020973276a8929e, "41846f0a791a11ed", "34f5032c76948f50"},
	"spatial/BA/n=1":                {"9b05155bf19215f4", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "777f70c21982084a", "73f722cd66297fd4"},
	"spatial/BA/n=17":               {"1f033fe05a39ddbf", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff6495840a23bf2, "7152746a0583e1c7", "b5e554e566675fa2"},
	"spatial/BA/n=500":              {"d7885ceae5b6e7f0", "BA", 298, 10, 0x4031d5ab6e495ac3, 0x4020973276a8929e, "579a711380068427", "f1acd3c5214e6d4d"},
	"spatial/BA/n=32768":            {"20fff45216a7d2cd", "BA", 531, 13, 0x4031d5ab6e495ac3, 0x4080fd213e1d422b, "a2806f261d3b3aac", "d21c65191158e543"},
	"spatial/BA-HF/n=1":             {"3cd52c65c64791d9", "BA-HF(κ=1)", 0, 0, 0x40252cf2241c6f8c, 0x3ff0000000000000, "777f70c21982084a", "e0c7447a1837bf1b"},
	"spatial/BA-HF/n=17":            {"46dc42fdc5821d98", "BA-HF(κ=1)", 16, 5, 0x40252cf2241c6f8c, 0x3ff6495840a23bf2, "b9386e329740c4f2", "73b6b116af5220ec"},
	"spatial/BA-HF/n=500":           {"2526526e5fdc6b1d", "BA-HF(κ=1)", 315, 11, 0x40252cf2241c6f8c, 0x4020973276a8929e, "a41000b6ab480e2c", "0c190d7635c81b8e"},
	"spatial/BA-HF/n=32768":         {"20432df4de137e3e", "BA-HF(κ=1)", 531, 13, 0x40252cf2241c6f8c, 0x4080fd213e1d422b, "05626393f9758339", "7ba057c945e9285c"},
	"spatial/PHF/n=1":               {"461090a76f668c95", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "777f70c21982084a", "286fd9bc63f27f85"},
	"spatial/PHF/n=17":              {"acb8b1b060487ef4", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff38435b5cc931a, "94e9ae39ac0718d9", "72866bf140c12768"},
	"spatial/PHF/n=500":             {"67428e6c28ffedd1", "PHF", 150, 8, 0x401137fbf68603bc, 0x4020973276a8929e, "2d8b050add91648d", "1658220e34af8025"},
	"spatial/parallel-ba/n=1":       {"e68ee846d0d1ec7c", "BA", 0, 0, 0x3ff0000000000000, 0x3ff0000000000000, "777f70c21982084a", "563d43f01ffec725"},
	"spatial/parallel-ba/n=17":      {"68cfbfc4478df601", "BA", 16, 5, 0x4031d5ab6e495ac3, 0x3ff6495840a23bf2, "7152746a0583e1c7", "750ba7346bd226ff"},
	"spatial/parallel-ba/n=500":     {"bd47e5b948bceca8", "BA", 298, 10, 0x4031d5ab6e495ac3, 0x4020973276a8929e, "579a711380068427", "6eaaec6fc92e6ecf"},
	"spatial/parallel-phf/n=1":      {"185ed12a9fcf2b3d", "PHF", 0, 0, 0x401137fbf68603bc, 0x3ff0000000000000, "777f70c21982084a", "720b98a590960bc9"},
	"spatial/parallel-phf/n=17":     {"60c6b5c9a521bb32", "PHF", 16, 5, 0x401137fbf68603bc, 0x3ff38435b5cc931a, "94e9ae39ac0718d9", "e7a9cecd808b8fc2"},
	"spatial/parallel-phf/n=500":    {"4a3cdce602b5ba29", "PHF", 150, 8, 0x401137fbf68603bc, 0x4020973276a8929e, "2d8b050add91648d", "028b8ad5f7f4a508"},
}
