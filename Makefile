GO ?= go

.PHONY: all build test race cover fuzz-short bench bench-core bench-short bench-gate docs-lint ci chaos sweep sweep-slo sweep-parallel sweep-cluster sweep-rebalance sweep-real serve clean sweep-verify results-check perfbench-check

all: build test

# Tier-1 verification: everything compiles and the full suite passes.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race-detector pass over the whole module (the concurrent packages —
# the distributed BA/PHF runtime, the TCP collectives, the metrics
# substrate, the serving layer and the parallel planner — plus
# everything they touch), preceded by vet.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Coverage gate: full suite with -coverprofile, failing when the
# module-wide statement coverage drops below the floor (COVER_FLOOR,
# default 80%). Writes coverage.out for `go tool cover -func/-html`.
cover:
	./scripts/cover_floor.sh

# Short fuzzing pass: every native fuzz target explores for ~10s on top
# of its checked-in seed corpus (testdata/fuzz/). Plain `go test` always
# replays the seed corpora; this target is the cheap continuous
# exploration CI runs on every push. Minimising each new input is capped
# at FUZZMINIMIZE execs: with go's default of 60s, a target that finds
# inputs quickly spends most of its 10s minimising at 0 execs/s.
FUZZTIME ?= 10s
FUZZMINIMIZE ?= 100x
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzHFPHFIdentity$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSortByID$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHFQueue$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzGuarantee$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/bounds
	$(GO) test -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/bisect
	$(GO) test -run '^$$' -fuzz '^FuzzBoxBisect$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/quadrature
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotRestore$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzPlanJSON$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/netcoll
	$(GO) test -run '^$$' -fuzz '^FuzzPeerFrameDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/netcoll
	$(GO) test -run '^$$' -fuzz '^FuzzGraphLoader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzBisectSides$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixLoader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZE) ./internal/spatial

# Guarantee sweep: lbverify's randomized grid over (α, N, family) with
# every paper invariant checked on every instance (EXPERIMENTS.md X10).
sweep-verify:
	$(GO) run ./cmd/lbverify -sweep -instances 10000 -seed 1999

# Reproducibility gate: regenerate seven committed study tables with
# their EXPERIMENTS.md commands (E3 κ, X1 robustness, X2 split rule, E6
# machine model, X3 topologies, X4 end-to-end, X15 real instances) and
# fail if any byte differs. They run HF, BA, BA-HF and the BA split-rule
# ablation through the Problem-interface entry points, every algorithm
# on the simulated machine, and the graph and spatial bisectors. The
# end-to-end table is compared without its wall-clock line, and the
# real-instance table is regenerated with -out "" so BENCH_core.json is
# left alone; both go to a temporary file.
results-check:
	$(GO) run ./cmd/lbsim -exp splitrule -trials 500 -maxlog 14 -seed 1999 > results/splitrule.txt
	$(GO) run ./cmd/lbsim -exp robustness -trials 300 -seed 1999 > results/robustness.txt
	$(GO) run ./cmd/lbsim -exp kappa -trials 1000 -maxlog 14 -seed 1999 > results/kappa.txt
	$(GO) run ./cmd/lbsim -exp machine -trials 50 -maxlog 14 -n 4096 -seed 1999 > results/machine.txt
	$(GO) run ./cmd/lbsim -exp topology -trials 30 -n 4096 -seed 1999 > results/topology.txt
	git diff --exit-code -- results/splitrule.txt results/robustness.txt results/kappa.txt \
		results/machine.txt results/topology.txt
	out=$$(mktemp) && $(GO) run ./cmd/lbsim -exp endtoend -trials 100 -seed 1999 > $$out && \
		git diff --no-index --exit-code -I wall_ns -- results/endtoend.txt $$out; \
		s=$$?; rm -f $$out; exit $$s
	out=$$(mktemp) && $(GO) run ./cmd/lbsim -exp real -seed 1999 -out "" > $$out && \
		git diff --no-index --exit-code -- results/real.txt $$out; \
		s=$$?; rm -f $$out; exit $$s

# Serving-perf trajectory: the service micro-benchmarks plus a short
# open-loop lbload smoke against an in-process server. Rewrites
# BENCH_service.json and results/service_load.txt so the perf file
# cannot silently rot.
bench:
	$(GO) test -run '^$$' -bench Service -benchtime 200x ./internal/service
	mkdir -p results
	$(GO) run ./cmd/lbload -inprocess -rps 200 -duration 3s -out results/service_load.txt -json BENCH_service.json

# Serving-perf regression gate: a fresh in-process run compared against
# the checked-in BENCH_service.json "load" section. Warn-only by default
# (shared CI boxes are noisy); BENCH_GATE_STRICT=1 escalates violations
# to a build failure. Runs BEFORE `bench`, which rewrites the baseline.
bench-gate:
	./scripts/bench_gate.sh

# Core-planner trajectory: the lbbench grid ({HF, PHF, BA, BA-HF} × α ×
# N, plus the N ∈ {2^16, 2^20} HF and BA/BA-HF seq/par scale cells) over
# the allocation-free planner. Rewrites BENCH_core.json and
# results/bench_core.txt (EXPERIMENTS.md X9, X12).
bench-core:
	$(GO) run ./cmd/lbbench

# Regenerate the X12 parallel speedup study: BA-HF at N=2^20 through the
# multicore planner over the worker axis. Rewrites results/parallel.txt.
# Speedup only shows on a multicore machine; the table records maxprocs.
sweep-parallel:
	mkdir -p results
	$(GO) run ./cmd/lbbench -parallel

# One-iteration pass over every go-test benchmark in the perf-sensitive
# packages. This is a correctness gate, not a measurement: it proves each
# benchmark still builds and runs, so a refactor cannot silently orphan
# the benchmark suite.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core ./internal/bisect ./internal/quadrature ./internal/searchtree ./internal/femtree ./internal/graph ./internal/service .

# The benchmark harness (perfbench/, BENCHMARK.json) is its own Go
# module, so `go build ./...` and `go test ./...` at the root never
# compile it; this vets and tests it against the current facade.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Documentation lint: gofmt, vet, and scripts/docs_lint.sh (every
# results/*.txt and BENCH_*.json mentioned in the docs exists; every
# cmd/* is mentioned in README.md; every internal/* package has a
# package comment).
docs-lint:
	./scripts/docs_lint.sh

# Everything CI runs, in order: vet, the full suite, the race pass, the
# coverage gate, the short fuzzing pass, the benchmark gates, the
# benchmark-harness module, the docs lint, the serving-perf regression
# gate (against the old baseline, so it must precede `bench`), the
# serving-perf smoke, the cluster smoke, the rebalance smoke, the
# real-instance sweep, the all-family guarantee sweep and the
# study-table reproducibility gate.
ci: test race cover fuzz-short bench-short perfbench-check docs-lint bench-gate bench sweep-cluster sweep-rebalance sweep-real sweep-verify results-check

# Regenerate the X15 real-instance study (EXPERIMENTS.md X15): the
# randomized guarantee sweep restricted to the graph and spatial
# families — every invariant checked against the realized α̂ of each run
# — then the fixed-roster study that rewrites results/real.txt and the
# {real} section of BENCH_core.json (timing cells preserved). Both
# halves exit non-zero on any measured-bound violation. CI smoke mode:
# SWEEP_REAL_INSTANCES=200.
SWEEP_REAL_INSTANCES ?= 1200
sweep-real:
	mkdir -p results
	$(GO) run ./cmd/lbverify -sweep -instances $(SWEEP_REAL_INSTANCES) -seed 1999 -families graph,spatial
	$(GO) run ./cmd/lbsim -exp real -seed 1999 > /dev/null

# Regenerate the X7 chaos-study table.
chaos:
	mkdir -p results
	$(GO) run ./cmd/lbsim -exp chaos -trials 600 -seed 1999 | tee results/chaos.txt

# Regenerate the X8 service sweep (workers × cache on/off).
sweep:
	mkdir -p results
	$(GO) run ./cmd/lbload -study sweep -rps 300 -duration 2s -seed 1999 -json ""

# Regenerate the X11 SLO study (overload protection, tenant isolation,
# warm restarts). Rewrites results/service_slo.txt and the "slo" section
# of BENCH_service.json; exits non-zero if any acceptance criterion
# fails.
sweep-slo:
	mkdir -p results
	$(GO) run ./cmd/lbload -study slo -duration 4s -seed 1999 -json BENCH_service.json

# Regenerate the X13 cluster study (3 in-process nodes: exactly-once
# cluster-wide planning under concurrent misses, then an open-loop sweep
# with one node killed midway). Rewrites results/cluster.txt and the
# "cluster" section of BENCH_service.json; exits non-zero if the
# exactly-once invariant breaks or any request goes unserved.
sweep-cluster:
	mkdir -p results
	$(GO) run ./cmd/lbload -study cluster -rps 200 -duration 3s -seed 1999 -json BENCH_service.json

# Regenerate the X14 rebalance study (incremental replanning: patched vs
# fresh planning as drift grows, DESIGN.md §15). Appends the
# marker-delimited X14 block to results/dynamic.txt and rewrites the
# "rebalance" section of BENCH_service.json; exits non-zero if a small
# drift fails to patch faster than fresh or a patched ratio leaves the
# band.
sweep-rebalance:
	mkdir -p results
	$(GO) run ./cmd/lbload -study rebalance -json BENCH_service.json

# Run the balancing service locally.
serve:
	$(GO) run ./cmd/lbserve

clean:
	$(GO) clean ./...
