# Developer entry points. The repo is stdlib-only; everything runs with a
# plain Go toolchain.

GO ?= go

.PHONY: all build test tier1 bench bench-smoke bench-baseline \
	bench-gate serve loadtest selftest vet race pipeline fuzz-smoke tcp-smoke \
	tcp-obs balancer-smoke pexsi-batch tables width surface surface-gate fmt-check clean

all: build test bench-smoke

build:
	$(GO) build ./...

# tier1 is the gate run by CI and before every merge: vet plus the race
# detector over the packages with concurrency (the simulated-MPI substrate
# and its TCP backend, the multi-process launcher, the parallel engine,
# internal/dense for its pool of task-DAG offload slots, and internal/obs,
# whose collector every rank goroutine writes — a send updates the
# destination's queue watermark from the sender's goroutine — and whose
# goldens drive observed engine runs), internal/core, whose plan builds keep
# mutable build state (the tree intern table) that the daemon runs for
# several patterns at once, plus the library's DAG-mode runs. The
# race run of internal/server also holds the daemon's warm-request
# allocation budget: its body buffers are a free list no collection empties.
tier1: vet
	$(GO) test -race ./internal/simmpi/... ./internal/tcptransport/... \
		./internal/distrun/... ./internal/pselinv/... ./internal/dense/... \
		./internal/server/... ./internal/obs/... ./internal/core/...
	$(GO) test -race -run 'Dag' .

vet:
	$(GO) vet ./...

# Any Go file gofmt would rewrite fails the target (and the CI step beside
# go vet) by name.
fmt-check:
	@out="$$(gofmt -l . )"; \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own module (see BENCHMARK.json), so `go build ./...` and
# `go test ./...` from the root neither compile nor test it; this does.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The ROADMAP's size metric (aim 2), for PRs to cite before and after:
# non-test Go lines outside bench/, package count, exported top-level
# funcs, methods and types in non-test files, and typed flag declarations
# under cmd/.
SURFACE_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
surface:
	@echo "non-test Go lines:    $$($(SURFACE_FILES) | xargs cat | wc -l)"
	@echo "packages:             $$($(GO) list ./... | wc -l)"
	@echo "exported identifiers: $$($(SURFACE_FILES) | xargs grep -hE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' | wc -l)"
	@echo "cmd flag declarations: $$(grep -rhoE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' cmd | wc -l)"

# CI's check that the size metric does not creep: fails, naming the number,
# when non-test lines, exported identifiers or cmd flag declarations exceed
# the committed baseline (the package count is printed, not gated). A PR that
# lowers a number commits the new baseline: `make surface > .github/surface-baseline.txt`.
surface-gate:
	@$(MAKE) -s surface | awk -F': *' ' \
		NR == FNR { base[$$1] = $$2; next } \
		{ print } \
		$$1 != "packages" && $$2 + 0 > base[$$1] + 0 { \
			printf "surface-gate: %s rose to %d, baseline %d\n", $$1, $$2, base[$$1]; bad = 1 } \
		END { exit bad }' .github/surface-baseline.txt -

# The engine's property test: FuzzPipeline's seed corpus under the race
# detector, then FUZZTIME of coverage-guided inputs (see EXPERIMENTS.md
# "FuzzPipeline — reproducing a failure from its corpus file").
pipeline:
	$(GO) test -race -count=1 -run '^FuzzPipeline$$' ./internal/pselinv/
	$(GO) test ./internal/pselinv/ -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime $(FUZZTIME)

# Short coverage-guided fuzz runs of the tree constructions, the grouped
# plan, the graph orderings and the symbolic analysis against their oracles, the
# untrusted-input decoders, and the engine's FuzzPipeline (one target per
# invocation, as the fuzz engine requires). The server target skips its package's tests (they include the
# timed plan-cache SLO), the launcher's result-line target the multi-process
# ones; they and the snapshot target cap corpus minimization, which otherwise
# eats the whole budget on JSON-sized inputs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/core/ -fuzz FuzzBinaryTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzShiftedTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzOpKeyRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzTopoShiftedTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzPlanGroups$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tcptransport/ -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse/ -fuzz FuzzReadMatrixMarket -fuzztime $(FUZZTIME)
	$(GO) test ./internal/etree/ -run '^$$' -fuzz '^FuzzSymbolic$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ordering/ -run '^$$' -fuzz '^FuzzOrdering$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzUnmarshalSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzRequestJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/distrun/ -run '^$$' -fuzz FuzzResultLine -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/pselinv/ -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime $(FUZZTIME)

# Multi-process smoke: the cross-backend equivalence tests (launcher
# re-execs the test binary, one OS process per rank; what every rank counted
# must be the plan's vectors) plus a real observed commvol run over the TCP
# transport at P=4. See EXPERIMENTS.md "Multi-process runs over TCP".
TCP_OBS_OUT ?= obs-tcp
tcp-smoke:
	$(GO) test -race -count=1 ./internal/distrun/ ./internal/tcptransport/
	$(GO) run ./cmd/commvol -obs -quick -pr 2 -transport=tcp -obs-out $(TCP_OBS_OUT)

# Distributed observability smoke: the snapshot/merge/clock-sync test
# surface under the race detector, then a real 4-process observed commvol
# run (race-instrumented launcher AND workers — the workers are re-execs
# of the same binary). The launcher's MergeObs refuses the merge unless
# every class's merged traffic-matrix marginals equal the workers'
# sent/received counters exactly, so a green run IS the end-to-end
# telemetry conservation assertion. See EXPERIMENTS.md "Distributed
# observability".
tcp-obs:
	$(GO) test -race -count=1 -run 'Obs|Clock|Snapshot|Merge|Straggler|Trim|Tail|Span' \
		./internal/obs/ ./internal/tcptransport/ ./internal/distrun/
	$(GO) run -race ./cmd/commvol -obs -quick -pr 2 -transport=tcp \
		-schemes flat,binary,shifted -obs-out $(TCP_OBS_OUT)

# Balancer smoke: the owner-map property tests and the service round-trip
# under the race detector (FuzzPipeline holds every balancer to the serial
# reference), then one instrumented obs run per balancer so
# the JSON reports (with the per-rank load section) land under
# BALANCER_OBS_OUT — the artifacts the nightly workflow uploads.
BALANCER_OBS_OUT ?= obs-balancers
balancer-smoke:
	$(GO) test -race -count=1 -run Balancer ./internal/core/ ./internal/server/
	for b in cyclic work; do \
		$(GO) run ./cmd/commvol -obs -quick -pr 4 -obs-out $(BALANCER_OBS_OUT)/$$b \
			-balancer $$b -schemes shifted || exit 1; \
	done

# Multi-pole batch smoke: the batch-engine parity and allocation-flatness
# tests plus the server batch-endpoint contract under the race detector,
# then a real 16-pole complex Matsubara batch through cmd/pexsi. See
# EXPERIMENTS.md "Multi-pole batch throughput".
pexsi-batch:
	$(GO) test -race -count=1 -run 'Batch|ComplexPole' \
		./internal/pexsi/ ./internal/server/
	$(GO) run ./cmd/pexsi -batch -nx 10 -ny 10 -poles 16 \
		-procs 4 -balancer work

# The §IV-A tables and figures of EXPERIMENTS.md — Tables I–II and Figs. 4,
# 5, 7 on the paper's 46×46 grid, Fig. 6 on 16×16 — read off the plan of a
# symbolic-only pipeline (≈30 s, ≈2.5 GB peak on 2 vCPUs). QUICK=1 is CI's
# smoke: the -quick run must reproduce the committed golden, whose rows were
# engine-measured, byte for byte.
tables:
	$(GO) run ./cmd/commvol -all $(if $(QUICK),-quick | diff cmd/commvol/testdata/all-quick.golden -)

# The scheme × balancer sweep behind EXPERIMENTS.md "Comparing tree schemes
# and balancers": every cell's exact plan counts next to its simulated
# makespan, written to BENCH_width.json (≈3 min and 1.6 GB peak on 2 vCPUs).
# QUICK=1 is the nightly smoke: one P and one seed into width-quick.json
# (≈40 s, 1.3 GB), which must reproduce
# cmd/scaling/testdata/width-quick.golden.json byte for byte.
width:
	$(GO) run ./cmd/scaling -width $(if $(QUICK),-quick -width-out width-quick.json \
		&& diff cmd/scaling/testdata/width-quick.golden.json width-quick.json)

bench:
	$(GO) test -run XXX -bench 'EndToEnd' -benchtime 300x .

# ---- Bench-regression gate -------------------------------------------------
# The CI gate re-runs a small, representative benchmark set (real GEMM and
# TRSM on the shapes the engine issues at MaxWidth 48, the 1M complex GEMM —
# plain and with a transposed operand — at the engine's median shape and its
# other top complex shapes, the
# 16-rank end-to-end inversion, the 4-rank sequential/DAG end-to-end pair,
# the 16-pole PEXSI batch, the in-place numeric refactorization at the
# benchmark's DG2D shape, real and complex, lower-only (symmetric values)
# and through the general loop, the diagonal inverse of a symmetric LU
# (L⁻ᵀ·D⁻¹·L⁻¹, real and complex, widths 20 and 48), the warm refactorize
# loop — sparse front end + factorization + engine — and the MatrixMarket
# parse) and compares
# it against the committed baseline with cmd/benchgate (medians +
# Mann-Whitney U test). A significant slowdown beyond BENCH_TOLERANCE
# fails CI.
#
# To update the baseline after an intentional perf change (or on new
# runner hardware): run `make bench-baseline` on the machine class CI uses
# (the bench-baseline job in ci.yml can do this via workflow_dispatch),
# commit .github/bench-baseline.txt, and explain the change in the commit
# message.
#
# The pattern is a top-level alternation of independent slash-split
# per-level regexes (a '|' outside brackets splits the whole pattern, so
# each branch carries exactly its benchmark's sub-level depth — a single
# multi-level pattern would leave shallower benchmarks partially matched
# and never measured).
BENCH_GATE_PATTERN = ^BenchmarkGemm$$/^48x(48|20|8|4)x48$$|^BenchmarkTrsm$$/^(right-lower-unit|left-upper-nonunit)$$/^48x(4|20|48)$$|^BenchmarkZGemm$$/^engine-(nn|tn)$$/^(28x28x44|12x48x48|4x48x48|44x12x28)$$|^BenchmarkEndToEndParallel16(Obs|Topo|Work)?$$|^BenchmarkEndToEndParallel$$|^BenchmarkEndToEndDag$$|^BenchmarkPexsiBatch(P)?16$$|^BenchmarkRefactorize$$/^(real|complex)(-general)?$$|^BenchmarkDiagInverse$$/^(real|complex)-(20|48)$$|^BenchmarkWarmRefactorize(ND)?$$|^BenchmarkReadMatrixMarket$$
BENCH_COUNT ?= 5
BENCH_TOLERANCE ?= 0.25
BENCH_OUT ?= /tmp/bench-new.txt

bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -count=$(BENCH_COUNT) \
		-benchtime 300ms ./internal/dense/ ./internal/factor/ ./internal/pexsi/ . | tee .github/bench-baseline.txt

bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -count=$(BENCH_COUNT) \
		-benchtime 300ms ./internal/dense/ ./internal/factor/ ./internal/pexsi/ . | tee $(BENCH_OUT)
	$(GO) run ./cmd/benchgate -baseline .github/bench-baseline.txt \
		-new $(BENCH_OUT) -tolerance $(BENCH_TOLERANCE)

# ---- Persistent service ----------------------------------------------------
ADDR ?= :8723
URL ?= http://localhost:8723

# Run the selected-inversion daemon (see README "Persistent service").
serve:
	$(GO) run ./cmd/pselinvd -addr $(ADDR)

# Drive a running daemon (URL=...) through the cold/warm plan-cache
# workload and enforce the 1.5x warm-speedup SLO.
loadtest:
	$(GO) run ./cmd/pselinvd -loadtest $(URL)

# Same workload against an in-process server: no daemon needed.
selftest:
	$(GO) run ./cmd/pselinvd -selftest

clean:
	$(GO) clean ./...
