package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"bisectlb/internal/bisect"
	"bisectlb/internal/topology"
)

// The golden tables pin every Metrics field of every simulated run, the
// ratio as its bit pattern, on the paper's α̂ ~ U[0.1, 0.5] workload with
// declared α = 0.1 and κ = 1. The case names are the key; only the code
// that runs a case may change, never the tables.

var (
	goldenNs    = []int{1, 2, 17, 512, 4096}
	goldenTopoN = []int{17, 512}
	goldenTrNs  = []int{17, 512}
	goldenSeeds = []uint64{1, 7, 1999}
)

const goldenAlpha, goldenKappa = 0.1, 1.0

func goldenProblem(seed uint64) bisect.Problem { return bisect.MustSynthetic(1, 0.1, 0.5, seed) }

// goldenRow renders the pinned fields of one run.
func goldenRow(m *Metrics, withName bool) string {
	s := fmt.Sprintf("N=%d mk=%d msg=%d mgr=%d gops=%d gt=%d bis=%d p1t=%d p2t=%d p1r=%d p2i=%d parts=%d ratio=%#016x",
		m.N, m.Makespan, m.Messages, m.ManagerMessages, m.GlobalOps, m.GlobalTime, m.Bisections,
		m.Phase1Time, m.Phase2Time, m.Phase1Rounds, m.Phase2Iterations, m.Parts, math.Float64bits(m.Ratio))
	if withName {
		s = m.Algorithm + " " + s
	}
	return s
}

// idealRuns runs one algorithm variant on the idealised machine.
var idealRuns = []struct {
	name string
	run  func(p bisect.Problem, topo topology.Topology) (*Metrics, error)
}{
	{"HF", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) { return RunHF(p, topo, nil) }},
	{"BA", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) { return RunBA(p, topo, nil) }},
	{"BA-HF", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) {
		return RunBAHF(p, topo, goldenAlpha, goldenKappa, nil)
	}},
	{"PHF/oracle", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) {
		return RunPHF(p, topo, goldenAlpha, Phase1Oracle, nil)
	}},
	{"PHF/central", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) {
		return RunPHF(p, topo, goldenAlpha, Phase1Central, nil)
	}},
	{"PHF/ba-prime", func(p bisect.Problem, topo topology.Topology) (*Metrics, error) {
		return RunPHF(p, topo, goldenAlpha, Phase1BAPrime, nil)
	}},
}

// topoRun runs BA or PHF (oracle management) on a topology. The
// algorithm name is not pinned: it is the caller's label. Neither is
// PHF's Phase1Rounds, which the topology runner did not fill when the
// tables were recorded.
func topoRun(alg string, p bisect.Problem, topo topology.Topology) (*Metrics, error) {
	if alg == "BA" {
		return RunBA(p, topo, nil)
	}
	m, err := RunPHF(p, topo, goldenAlpha, Phase1Oracle, nil)
	if err == nil {
		m.Phase1Rounds = 0
	}
	return m, err
}

// traceRun runs BA or PHF (oracle management) on the idealised machine
// with a trace.
func traceRun(alg string, p bisect.Problem, n int) (*Metrics, *Trace, error) {
	tr := new(Trace)
	var m *Metrics
	var err error
	if alg == "BA" {
		m, err = RunBA(p, topology.NewComplete(n), tr)
	} else {
		m, err = RunPHF(p, topology.NewComplete(n), goldenAlpha, Phase1Oracle, tr)
	}
	return m, tr, err
}

func checkGolden(t *testing.T, got map[string]string, order []string, want map[string]string) {
	t.Helper()
	var bad strings.Builder
	for _, k := range order {
		if got[k] != want[k] {
			fmt.Fprintf(&bad, "\t%q: %q,\n", k, got[k])
		}
	}
	if len(want) != len(got) {
		fmt.Fprintf(&bad, "table has %d rows, the run %d\n", len(want), len(got))
	}
	if bad.Len() > 0 {
		t.Fatalf("golden mismatch (got):\n%s", bad.String())
	}
}

func TestMachineGolden(t *testing.T) {
	got := map[string]string{}
	var order []string
	put := func(k, v string) { got[k] = v; order = append(order, k) }
	for _, n := range goldenNs {
		for _, seed := range goldenSeeds {
			for _, r := range idealRuns {
				m, err := r.run(goldenProblem(seed), topology.NewComplete(n))
				if err != nil {
					t.Fatal(err)
				}
				put(fmt.Sprintf("%s/N=%d/seed=%d", r.name, n, seed), goldenRow(m, true))
			}
		}
	}
	for _, n := range goldenTopoN {
		for _, topo := range topology.All(n) {
			for _, alg := range []string{"BA", "PHF"} {
				for _, seed := range goldenSeeds {
					m, err := topoRun(alg, goldenProblem(seed), topo)
					if err != nil {
						t.Fatal(err)
					}
					put(fmt.Sprintf("%s@%s/N=%d/seed=%d", alg, topo.Name(), n, seed), goldenRow(m, false))
				}
			}
		}
	}
	checkGolden(t, got, order, machineGolden)
}

// traceDigest hashes a trace's size, makespan and every event field.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(tr.N))
	word(uint64(tr.Makespan))
	for _, e := range tr.Events {
		word(uint64(e.Proc))
		word(uint64(e.Start))
		word(uint64(e.Duration))
		word(uint64(e.Action))
		word(math.Float64bits(e.Weight))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestTraceGolden(t *testing.T) {
	got := map[string]string{}
	var order []string
	put := func(k, v string) { got[k] = v; order = append(order, k) }
	for _, alg := range []string{"BA", "PHF"} {
		for _, n := range goldenTrNs {
			for _, seed := range goldenSeeds {
				m, tr, err := traceRun(alg, goldenProblem(seed), n)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/N=%d/seed=%d", alg, n, seed)
				put(key, goldenRow(m, true))
				put(key+"/events", traceDigest(tr))
				for _, rows := range []int{16, 1024} {
					var b strings.Builder
					if err := RenderGantt(&b, tr, rows); err != nil {
						t.Fatal(err)
					}
					put(fmt.Sprintf("%s/gantt%d", key, rows), fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))))
				}
			}
		}
	}
	checkGolden(t, got, order, traceGolden)
}

var machineGolden = map[string]string{
	"HF/N=1/seed=1":                 "HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA/N=1/seed=1":                 "BA N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA-HF/N=1/seed=1":              "BA-HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/oracle/N=1/seed=1":         "PHF/oracle N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/central/N=1/seed=1":        "PHF/central N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/ba-prime/N=1/seed=1":       "PHF/ba-prime N=1 mk=0 msg=0 mgr=0 gops=3 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"HF/N=1/seed=7":                 "HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA/N=1/seed=7":                 "BA N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA-HF/N=1/seed=7":              "BA-HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/oracle/N=1/seed=7":         "PHF/oracle N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/central/N=1/seed=7":        "PHF/central N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/ba-prime/N=1/seed=7":       "PHF/ba-prime N=1 mk=0 msg=0 mgr=0 gops=3 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"HF/N=1/seed=1999":              "HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA/N=1/seed=1999":              "BA N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"BA-HF/N=1/seed=1999":           "BA-HF N=1 mk=0 msg=0 mgr=0 gops=0 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/oracle/N=1/seed=1999":      "PHF/oracle N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/central/N=1/seed=1999":     "PHF/central N=1 mk=0 msg=0 mgr=0 gops=2 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"PHF/ba-prime/N=1/seed=1999":    "PHF/ba-prime N=1 mk=0 msg=0 mgr=0 gops=3 gt=0 bis=0 p1t=0 p2t=0 p1r=0 p2i=0 parts=1 ratio=0x3ff0000000000000",
	"HF/N=2/seed=1":                 "HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3cd773a8c02d9",
	"BA/N=2/seed=1":                 "BA N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3cd773a8c02d9",
	"BA-HF/N=2/seed=1":              "BA-HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3cd773a8c02d9",
	"PHF/oracle/N=2/seed=1":         "PHF/oracle N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3cd773a8c02d9",
	"PHF/central/N=2/seed=1":        "PHF/central N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3cd773a8c02d9",
	"PHF/ba-prime/N=2/seed=1":       "PHF/ba-prime N=2 mk=7 msg=1 mgr=0 gops=5 gt=5 bis=1 p1t=3 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3cd773a8c02d9",
	"HF/N=2/seed=7":                 "HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"BA/N=2/seed=7":                 "BA N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"BA-HF/N=2/seed=7":              "BA-HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"PHF/oracle/N=2/seed=7":         "PHF/oracle N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"PHF/central/N=2/seed=7":        "PHF/central N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"PHF/ba-prime/N=2/seed=7":       "PHF/ba-prime N=2 mk=7 msg=1 mgr=0 gops=5 gt=5 bis=1 p1t=3 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff3d526a6d5a6ba",
	"HF/N=2/seed=1999":              "HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff0d464f7729cdf",
	"BA/N=2/seed=1999":              "BA N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff0d464f7729cdf",
	"BA-HF/N=2/seed=1999":           "BA-HF N=2 mk=2 msg=1 mgr=0 gops=0 gt=0 bis=1 p1t=0 p2t=0 p1r=0 p2i=0 parts=2 ratio=0x3ff0d464f7729cdf",
	"PHF/oracle/N=2/seed=1999":      "PHF/oracle N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff0d464f7729cdf",
	"PHF/central/N=2/seed=1999":     "PHF/central N=2 mk=6 msg=1 mgr=0 gops=4 gt=4 bis=1 p1t=2 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff0d464f7729cdf",
	"PHF/ba-prime/N=2/seed=1999":    "PHF/ba-prime N=2 mk=7 msg=1 mgr=0 gops=5 gt=5 bis=1 p1t=3 p2t=4 p1r=0 p2i=1 parts=2 ratio=0x3ff0d464f7729cdf",
	"HF/N=17/seed=1":                "HF N=17 mk=32 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffc59df4d6f7d14",
	"BA/N=17/seed=1":                "BA N=17 mk=8 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA-HF/N=17/seed=1":             "BA-HF N=17 mk=19 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3fffc7eff397f8d1",
	"PHF/oracle/N=17/seed=1":        "PHF/oracle N=17 mk=96 msg=16 mgr=0 gops=16 gt=80 bis=16 p1t=16 p2t=80 p1r=5 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF/central/N=17/seed=1":       "PHF/central N=17 mk=101 msg=16 mgr=14 gops=16 gt=80 bis=16 p1t=21 p2t=80 p1r=5 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF/ba-prime/N=17/seed=1":      "PHF/ba-prime N=17 mk=101 msg=16 mgr=0 gops=17 gt=85 bis=16 p1t=21 p2t=80 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"HF/N=17/seed=7":                "HF N=17 mk=32 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffbdd73aa70d584",
	"BA/N=17/seed=7":                "BA N=17 mk=7 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA-HF/N=17/seed=7":             "BA-HF N=17 mk=19 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffe0ba17ef188ae",
	"PHF/oracle/N=17/seed=7":        "PHF/oracle N=17 mk=100 msg=16 mgr=0 gops=17 gt=85 bis=16 p1t=15 p2t=85 p1r=4 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF/central/N=17/seed=7":       "PHF/central N=17 mk=106 msg=16 mgr=12 gops=17 gt=85 bis=16 p1t=21 p2t=85 p1r=4 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF/ba-prime/N=17/seed=7":      "PHF/ba-prime N=17 mk=105 msg=16 mgr=0 gops=18 gt=90 bis=16 p1t=20 p2t=85 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"HF/N=17/seed=1999":             "HF N=17 mk=32 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ff86991e42303c4",
	"BA/N=17/seed=1999":             "BA N=17 mk=9 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"BA-HF/N=17/seed=1999":          "BA-HF N=17 mk=17 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ff86991e42303c4",
	"PHF/oracle/N=17/seed=1999":     "PHF/oracle N=17 mk=114 msg=16 mgr=0 gops=19 gt=95 bis=16 p1t=17 p2t=97 p1r=6 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"PHF/central/N=17/seed=1999":    "PHF/central N=17 mk=119 msg=16 mgr=16 gops=19 gt=95 bis=16 p1t=22 p2t=97 p1r=6 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"PHF/ba-prime/N=17/seed=1999":   "PHF/ba-prime N=17 mk=119 msg=16 mgr=0 gops=20 gt=100 bis=16 p1t=22 p2t=97 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"HF/N=512/seed=1":               "HF N=512 mk=1022 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x3ffae4d88fcefc5b",
	"BA/N=512/seed=1":               "BA N=512 mk=21 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA-HF/N=512/seed=1":            "BA-HF N=512 mk=30 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x4003e817fa785546",
	"PHF/oracle/N=512/seed=1":       "PHF/oracle N=512 mk=298 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=37 p2t=261 p1r=18 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF/central/N=512/seed=1":      "PHF/central N=512 mk=497 msg=511 mgr=428 gops=29 gt=261 bis=511 p1t=236 p2t=261 p1r=18 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF/ba-prime/N=512/seed=1":     "PHF/ba-prime N=512 mk=307 msg=511 mgr=0 gops=30 gt=270 bis=511 p1t=46 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"HF/N=512/seed=7":               "HF N=512 mk=1022 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x3ffb96376835578d",
	"BA/N=512/seed=7":               "BA N=512 mk=17 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA-HF/N=512/seed=7":            "BA-HF N=512 mk=29 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x4003f7e4c94b57aa",
	"PHF/oracle/N=512/seed=7":       "PHF/oracle N=512 mk=294 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=33 p2t=261 p1r=13 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF/central/N=512/seed=7":      "PHF/central N=512 mk=492 msg=511 mgr=418 gops=29 gt=261 bis=511 p1t=231 p2t=261 p1r=13 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF/ba-prime/N=512/seed=7":     "PHF/ba-prime N=512 mk=303 msg=511 mgr=0 gops=30 gt=270 bis=511 p1t=42 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"HF/N=512/seed=1999":            "HF N=512 mk=1022 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x3ffc1fb55ace0116",
	"BA/N=512/seed=1999":            "BA N=512 mk=19 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"BA-HF/N=512/seed=1999":         "BA-HF N=512 mk=30 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x4003b9e15cff396c",
	"PHF/oracle/N=512/seed=1999":    "PHF/oracle N=512 mk=296 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=35 p2t=261 p1r=15 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"PHF/central/N=512/seed=1999":   "PHF/central N=512 mk=488 msg=511 mgr=410 gops=29 gt=261 bis=511 p1t=227 p2t=261 p1r=15 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"PHF/ba-prime/N=512/seed=1999":  "PHF/ba-prime N=512 mk=305 msg=511 mgr=0 gops=30 gt=270 bis=511 p1t=44 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"HF/N=4096/seed=1":              "HF N=4096 mk=8190 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x3ffbc5825097185a",
	"BA/N=4096/seed=1":              "BA N=4096 mk=28 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x400b6fae542e1679",
	"BA-HF/N=4096/seed=1":           "BA-HF N=4096 mk=39 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x400584fa8932a08b",
	"PHF/oracle/N=4096/seed=1":      "PHF/oracle N=4096 mk=392 msg=4095 mgr=0 gops=29 gt=348 bis=4095 p1t=50 p2t=342 p1r=24 p2i=9 parts=4096 ratio=0x3ffbc5825097185a",
	"PHF/central/N=4096/seed=1":     "PHF/central N=4096 mk=2019 msg=4095 mgr=3298 gops=29 gt=348 bis=4095 p1t=1677 p2t=342 p1r=24 p2i=9 parts=4096 ratio=0x3ffbc5825097185a",
	"PHF/ba-prime/N=4096/seed=1":    "PHF/ba-prime N=4096 mk=404 msg=4095 mgr=0 gops=30 gt=360 bis=4095 p1t=62 p2t=342 p1r=0 p2i=9 parts=4096 ratio=0x3ffbc5825097185a",
	"HF/N=4096/seed=7":              "HF N=4096 mk=8190 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x3ffb97f25f6d6cf2",
	"BA/N=4096/seed=7":              "BA N=4096 mk=24 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x4009c9ac3ac75392",
	"BA-HF/N=4096/seed=7":           "BA-HF N=4096 mk=35 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x4002d9e31c50be9c",
	"PHF/oracle/N=4096/seed=7":      "PHF/oracle N=4096 mk=388 msg=4095 mgr=0 gops=29 gt=348 bis=4095 p1t=46 p2t=342 p1r=20 p2i=9 parts=4096 ratio=0x3ffb97f25f6d6cf2",
	"PHF/central/N=4096/seed=7":     "PHF/central N=4096 mk=2010 msg=4095 mgr=3280 gops=29 gt=348 bis=4095 p1t=1668 p2t=342 p1r=20 p2i=9 parts=4096 ratio=0x3ffb97f25f6d6cf2",
	"PHF/ba-prime/N=4096/seed=7":    "PHF/ba-prime N=4096 mk=400 msg=4095 mgr=0 gops=30 gt=360 bis=4095 p1t=58 p2t=342 p1r=0 p2i=9 parts=4096 ratio=0x3ffb97f25f6d6cf2",
	"HF/N=4096/seed=1999":           "HF N=4096 mk=8190 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x3ffb9bce7dacdd6f",
	"BA/N=4096/seed=1999":           "BA N=4096 mk=26 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x400a41f6ec2d0b97",
	"BA-HF/N=4096/seed=1999":        "BA-HF N=4096 mk=37 msg=4095 mgr=0 gops=0 gt=0 bis=4095 p1t=0 p2t=0 p1r=0 p2i=0 parts=4096 ratio=0x40044779be45e24a",
	"PHF/oracle/N=4096/seed=1999":   "PHF/oracle N=4096 mk=390 msg=4095 mgr=0 gops=29 gt=348 bis=4095 p1t=48 p2t=342 p1r=22 p2i=9 parts=4096 ratio=0x3ffb9bce7dacdd6f",
	"PHF/central/N=4096/seed=1999":  "PHF/central N=4096 mk=2013 msg=4095 mgr=3286 gops=29 gt=348 bis=4095 p1t=1671 p2t=342 p1r=22 p2i=9 parts=4096 ratio=0x3ffb9bce7dacdd6f",
	"PHF/ba-prime/N=4096/seed=1999": "PHF/ba-prime N=4096 mk=402 msg=4095 mgr=0 gops=30 gt=360 bis=4095 p1t=60 p2t=342 p1r=0 p2i=9 parts=4096 ratio=0x3ffb9bce7dacdd6f",
	"BA@complete/N=17/seed=1":       "N=17 mk=8 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA@complete/N=17/seed=7":       "N=17 mk=7 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA@complete/N=17/seed=1999":    "N=17 mk=9 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"PHF@complete/N=17/seed=1":      "N=17 mk=96 msg=16 mgr=0 gops=16 gt=80 bis=16 p1t=16 p2t=80 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF@complete/N=17/seed=7":      "N=17 mk=100 msg=16 mgr=0 gops=17 gt=85 bis=16 p1t=15 p2t=85 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF@complete/N=17/seed=1999":   "N=17 mk=114 msg=16 mgr=0 gops=19 gt=95 bis=16 p1t=17 p2t=97 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"BA@hypercube/N=17/seed=1":      "N=17 mk=12 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA@hypercube/N=17/seed=7":      "N=17 mk=10 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA@hypercube/N=17/seed=1999":   "N=17 mk=12 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"PHF@hypercube/N=17/seed=1":     "N=17 mk=106 msg=16 mgr=0 gops=16 gt=80 bis=16 p1t=18 p2t=88 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF@hypercube/N=17/seed=7":     "N=17 mk=110 msg=16 mgr=0 gops=17 gt=85 bis=16 p1t=16 p2t=94 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF@hypercube/N=17/seed=1999":  "N=17 mk=126 msg=16 mgr=0 gops=19 gt=95 bis=16 p1t=18 p2t=108 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"BA@fat-tree/N=17/seed=1":       "N=17 mk=27 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA@fat-tree/N=17/seed=7":       "N=17 mk=27 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA@fat-tree/N=17/seed=1999":    "N=17 mk=27 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"PHF@fat-tree/N=17/seed=1":      "N=17 mk=218 msg=16 mgr=0 gops=16 gt=160 bis=16 p1t=31 p2t=187 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF@fat-tree/N=17/seed=7":      "N=17 mk=230 msg=16 mgr=0 gops=17 gt=170 bis=16 p1t=33 p2t=197 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF@fat-tree/N=17/seed=1999":   "N=17 mk=260 msg=16 mgr=0 gops=19 gt=190 bis=16 p1t=34 p2t=226 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"BA@mesh2d/N=17/seed=1":         "N=17 mk=14 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA@mesh2d/N=17/seed=7":         "N=17 mk=15 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA@mesh2d/N=17/seed=1999":      "N=17 mk=15 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"PHF@mesh2d/N=17/seed=1":        "N=17 mk=159 msg=16 mgr=0 gops=16 gt=128 bis=16 p1t=24 p2t=135 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF@mesh2d/N=17/seed=7":        "N=17 mk=163 msg=16 mgr=0 gops=17 gt=136 bis=16 p1t=23 p2t=140 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF@mesh2d/N=17/seed=1999":     "N=17 mk=191 msg=16 mgr=0 gops=19 gt=152 bis=16 p1t=26 p2t=165 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"BA@ring/N=17/seed=1":           "N=17 mk=16 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA@ring/N=17/seed=7":           "N=17 mk=16 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA@ring/N=17/seed=1999":        "N=17 mk=18 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"PHF@ring/N=17/seed=1":          "N=17 mk=178 msg=16 mgr=0 gops=16 gt=128 bis=16 p1t=28 p2t=150 p1r=0 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF@ring/N=17/seed=7":          "N=17 mk=181 msg=16 mgr=0 gops=17 gt=136 bis=16 p1t=25 p2t=156 p1r=0 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF@ring/N=17/seed=1999":       "N=17 mk=212 msg=16 mgr=0 gops=19 gt=152 bis=16 p1t=30 p2t=182 p1r=0 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"BA@complete/N=512/seed=1":      "N=512 mk=21 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA@complete/N=512/seed=7":      "N=512 mk=17 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA@complete/N=512/seed=1999":   "N=512 mk=19 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"PHF@complete/N=512/seed=1":     "N=512 mk=298 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=37 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF@complete/N=512/seed=7":     "N=512 mk=294 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=33 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF@complete/N=512/seed=1999":  "N=512 mk=296 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=35 p2t=261 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"BA@hypercube/N=512/seed=1":     "N=512 mk=34 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA@hypercube/N=512/seed=7":     "N=512 mk=34 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA@hypercube/N=512/seed=1999":  "N=512 mk=34 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"PHF@hypercube/N=512/seed=1":    "N=512 mk=365 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=47 p2t=318 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF@hypercube/N=512/seed=7":    "N=512 mk=359 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=43 p2t=316 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF@hypercube/N=512/seed=1999": "N=512 mk=368 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=47 p2t=321 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"BA@fat-tree/N=512/seed=1":      "N=512 mk=74 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA@fat-tree/N=512/seed=7":      "N=512 mk=84 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA@fat-tree/N=512/seed=1999":   "N=512 mk=83 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"PHF@fat-tree/N=512/seed=1":     "N=512 mk=750 msg=511 mgr=0 gops=29 gt=522 bis=511 p1t=95 p2t=655 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF@fat-tree/N=512/seed=7":     "N=512 mk=756 msg=511 mgr=0 gops=29 gt=522 bis=511 p1t=101 p2t=655 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF@fat-tree/N=512/seed=1999":  "N=512 mk=755 msg=511 mgr=0 gops=29 gt=522 bis=511 p1t=100 p2t=655 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"BA@mesh2d/N=512/seed=1":        "N=512 mk=99 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA@mesh2d/N=512/seed=7":        "N=512 mk=103 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA@mesh2d/N=512/seed=1999":     "N=512 mk=80 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"PHF@mesh2d/N=512/seed=1":       "N=512 mk=1654 msg=511 mgr=0 gops=29 gt=1276 bis=511 p1t=149 p2t=1505 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF@mesh2d/N=512/seed=7":       "N=512 mk=1636 msg=511 mgr=0 gops=29 gt=1276 bis=511 p1t=148 p2t=1488 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF@mesh2d/N=512/seed=1999":    "N=512 mk=1645 msg=511 mgr=0 gops=29 gt=1276 bis=511 p1t=163 p2t=1482 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"BA@ring/N=512/seed=1":          "N=512 mk=394 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA@ring/N=512/seed=7":          "N=512 mk=395 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA@ring/N=512/seed=1999":       "N=512 mk=491 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"PHF@ring/N=512/seed=1":         "N=512 mk=9889 msg=511 mgr=0 gops=29 gt=7424 bis=511 p1t=737 p2t=9152 p1r=0 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF@ring/N=512/seed=7":         "N=512 mk=9826 msg=511 mgr=0 gops=29 gt=7424 bis=511 p1t=730 p2t=9096 p1r=0 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF@ring/N=512/seed=1999":      "N=512 mk=9817 msg=511 mgr=0 gops=29 gt=7424 bis=511 p1t=729 p2t=9088 p1r=0 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
}

var traceGolden = map[string]string{
	"BA/N=17/seed=1":                "BA N=17 mk=8 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x4000372d810735dc",
	"BA/N=17/seed=1/events":         "9c02ed2017e6bd8be3165f1cca8c5c2053101f4637a2c5840ac7e417d2f8c483",
	"BA/N=17/seed=1/gantt16":        "f7376e01263056de5a4c732e3494735f1611d2a5a334cfbd65fc768eecadca48",
	"BA/N=17/seed=1/gantt1024":      "6336741fa4483e951ef7d044886039c3816a01fa2abfb49d9476d43ffc41af80",
	"BA/N=17/seed=7":                "BA N=17 mk=7 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x3ffee53b2499aeb9",
	"BA/N=17/seed=7/events":         "bb928033985aef21e7ce4b507eb301c41354e3d193ffd015719b9aa75295fcc3",
	"BA/N=17/seed=7/gantt16":        "f1cdd73ba1438bd8ac40eeec10f97eeef269c19367decf6cc0cdb497e54dcab2",
	"BA/N=17/seed=7/gantt1024":      "664a15fdc0834cdaf58a2b8f163c6eaa33151093221411ee1d67295bb946f860",
	"BA/N=17/seed=1999":             "BA N=17 mk=9 msg=16 mgr=0 gops=0 gt=0 bis=16 p1t=0 p2t=0 p1r=0 p2i=0 parts=17 ratio=0x400079d70fad0ba8",
	"BA/N=17/seed=1999/events":      "07c2d3ed41ce5e40d75c56c8a59d3441c0e70b3b7c490be4bd225e09f541f94c",
	"BA/N=17/seed=1999/gantt16":     "9a9c2ccf4d18585aa0efe3317161bfeaa7abec789d464a85c0f8e7b7fe29d13e",
	"BA/N=17/seed=1999/gantt1024":   "f7b65916d07098bffe303f3c5545185d6d5e3a833aceb234cd8fc581f4e97fee",
	"BA/N=512/seed=1":               "BA N=512 mk=21 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400626221b60ac08",
	"BA/N=512/seed=1/events":        "3d5bd2b70fd4ff66b1c3cbea7bbf1eb7f95d7e1cd1a572834a1510659cd23be7",
	"BA/N=512/seed=1/gantt16":       "2fe49dec0cdc940c24a0d5474ca2344de849accdddeb809bcfcca496da11cb77",
	"BA/N=512/seed=1/gantt1024":     "db83a06081c5773c14e0d7b42e55464bc4deedaf4aa71bb48a83d892dbef272e",
	"BA/N=512/seed=7":               "BA N=512 mk=17 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400639fcd62226d8",
	"BA/N=512/seed=7/events":        "0fd8182a87f7824fac355a43003ce1713956a1302cf19156894b78f17b940c41",
	"BA/N=512/seed=7/gantt16":       "a16ea5caf6c971f1c55b051fcdbc4afbbdd96869e6d4e5075c517310be9e0968",
	"BA/N=512/seed=7/gantt1024":     "40f0bbe614d4c1ed930913b1e010651320be5cb130db12fa5d75045eb9c42f12",
	"BA/N=512/seed=1999":            "BA N=512 mk=19 msg=511 mgr=0 gops=0 gt=0 bis=511 p1t=0 p2t=0 p1r=0 p2i=0 parts=512 ratio=0x400760b049134bba",
	"BA/N=512/seed=1999/events":     "3cef6e1307bc861a6463155f3bda0b361ec784283d14337fc6dcff6c148620b1",
	"BA/N=512/seed=1999/gantt16":    "d055e09e18f3bee3be91abc7f947aa83d74b6a81c8d4f21c5190dcb861f4da86",
	"BA/N=512/seed=1999/gantt1024":  "f6cc07636916dc23b3362642612e05ef0e39cc210a3895e3895f1eb8928c024f",
	"PHF/N=17/seed=1":               "PHF/oracle N=17 mk=96 msg=16 mgr=0 gops=16 gt=80 bis=16 p1t=16 p2t=80 p1r=5 p2i=5 parts=17 ratio=0x3ffc59df4d6f7d14",
	"PHF/N=17/seed=1/events":        "d5745cfb9b127bbd28a6407b23d6e5302ea40dd13e2583579fe61d51a7907dfd",
	"PHF/N=17/seed=1/gantt16":       "27938a65e38eb710dca0dceaa03dc990aee0eb697535458d73071e2e04550ded",
	"PHF/N=17/seed=1/gantt1024":     "8c88d37d931252480e22c8c4ed408ead41e96d454740bee5cd86e2d2a956c7bf",
	"PHF/N=17/seed=7":               "PHF/oracle N=17 mk=100 msg=16 mgr=0 gops=17 gt=85 bis=16 p1t=15 p2t=85 p1r=4 p2i=5 parts=17 ratio=0x3ffbdd73aa70d584",
	"PHF/N=17/seed=7/events":        "91018a57b700fdd53a6d1a80444855104fe02384a7e017b6042224bfea24a97f",
	"PHF/N=17/seed=7/gantt16":       "ee1a3152a09f4d42538c51cb52cd1da882126cb82e42b18f1577f27968ee2ac9",
	"PHF/N=17/seed=7/gantt1024":     "da5dbb4a4321e1cfe1b91562591d607d95a42c37cebe8231707a1b5fd40996b8",
	"PHF/N=17/seed=1999":            "PHF/oracle N=17 mk=114 msg=16 mgr=0 gops=19 gt=95 bis=16 p1t=17 p2t=97 p1r=6 p2i=6 parts=17 ratio=0x3ff86991e42303c4",
	"PHF/N=17/seed=1999/events":     "e5869a47843ec8bd9b852a65a2324cdf1bdea2ec4706525bf8266baea7d436ee",
	"PHF/N=17/seed=1999/gantt16":    "af0efd8076794e470e832d62a5dbb690452229c92ee122403b9305bd96327778",
	"PHF/N=17/seed=1999/gantt1024":  "403063759512ed745b53e71e7751723cd31c81340aa20302f5da8e5b55caecad",
	"PHF/N=512/seed=1":              "PHF/oracle N=512 mk=298 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=37 p2t=261 p1r=18 p2i=9 parts=512 ratio=0x3ffae4d88fcefc5b",
	"PHF/N=512/seed=1/events":       "2860c46dbf38a2300c05e3f2a60e63d7e2971c4f9bdbd01bb37420598c47ecdb",
	"PHF/N=512/seed=1/gantt16":      "55b86e199e3316359f9c6d24d6c42fb3b6455e1098c7f3e87379ccd332c613cb",
	"PHF/N=512/seed=1/gantt1024":    "13179f4b151a073a5d9ccc3d086f13af53d9f9b12b3d35cd3e57d6d51078db2e",
	"PHF/N=512/seed=7":              "PHF/oracle N=512 mk=294 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=33 p2t=261 p1r=13 p2i=9 parts=512 ratio=0x3ffb96376835578d",
	"PHF/N=512/seed=7/events":       "4ef5aea99a995942062b83ef114bfaa79a182e58dcbf099fd042f45fef7fc7cb",
	"PHF/N=512/seed=7/gantt16":      "b7a77827713313573a621f35c1de004d40131d4caeb8f0757a3796d3cf1f4be7",
	"PHF/N=512/seed=7/gantt1024":    "7e3edc85c9af3ada436454effdf3e9a1d320555b8d404d317303f95d87a7b033",
	"PHF/N=512/seed=1999":           "PHF/oracle N=512 mk=296 msg=511 mgr=0 gops=29 gt=261 bis=511 p1t=35 p2t=261 p1r=15 p2i=9 parts=512 ratio=0x3ffc1fb55ace0116",
	"PHF/N=512/seed=1999/events":    "bd61b0c585652a758825b2fb88b7ea8b5dacdf9b492f446faf409fa0c5f5bf95",
	"PHF/N=512/seed=1999/gantt16":   "4ac9ee4f26824787edf3a5daae6cfc878748fe1a450085ec1586052ab5e30dcd",
	"PHF/N=512/seed=1999/gantt1024": "3473a597d2f615a99ba78b475ea6b0f5c53562cd25ec3912458a583c065fd531",
}
