GO ?= go

.PHONY: all check build test vet race bench bench-paper experiments examples fuzz soak optgap cover clean

# Default: the full pre-merge gate — compile, static checks, and the test
# suite under the race detector (the obs registry is exercised concurrently).
check: build vet race

all: build vet test

build:
	$(GO) build ./...

# gofmt -l exits 0 whatever it lists; grep prints the list and the
# negation fails the target when there is one.
vet:
	$(GO) vet ./...
	@! gofmt -l . | grep .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate every paper table and figure at paper scale.
experiments:
	$(GO) run ./cmd/experiments all

# The repository's one benchmark (bench/README.md): six workloads, the
# end-to-end metrics and the traced per-layer metrics, each compared with
# the committed baseline under bench/baseline/. Writes only bench/out/.
bench:
	bench/run.sh

# Every package's testing.B benchmarks: BenchmarkExperiments/<id> times
# each registered experiment at paper scale, plus the microbenchmarks.
bench-paper:
	$(GO) test -bench=. -benchmem ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/powerfail
	$(GO) run ./examples/cluster
	$(GO) run ./examples/phases
	$(GO) run ./examples/serverfarm

# Short fuzz sessions over the parsers, the profile loader, the farm
# budget-schedule parser, the arrival-spec parser, the JSON and binary
# wire decoders, the event-timeline op sequencer, the exact
# optimal-assignment solver on whole-watt random tables (feasibility,
# greedy domination, permutation invariance, the DP's merge kernel
# against its sort oracle, brute force), the Step-2 walk
# (fvsst.FitToBudgetGrid against its two independent statements,
# StepTwoReplay and optimal.Greedy, on the paper's and on wide whole-watt
# tables), the closed-form repeated addition under the bulk
# replay (units.AddRepeat against the k additions, on the bits), a
# mix's round robin against the scan that never drops a finished job,
# the Monte-Carlo executor's batched blocks against the per-block loop
# (on the bits), the farm allocator's conservation of the budget, and the
# soak's trace lines against their fmt rendering. This is the one list of
# fuzz targets: TestMakeFuzzListsEveryTarget (guards_test.go) fails when a
# test file declares a Fuzz function it does not name. Each session runs
# FUZZTIME (make fuzz FUZZTIME=10s for a short pass).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz FuzzOptimalAssign -fuzztime $(FUZZTIME) ./internal/optimal/
	$(GO) test -fuzz FuzzStepTwoAgreement -fuzztime $(FUZZTIME) ./internal/invariant/
	$(GO) test -fuzz FuzzTimelineOps -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -fuzz FuzzParseFrequency -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz FuzzParsePower -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz FuzzAddRepeat -fuzztime $(FUZZTIME) ./internal/units/
	$(GO) test -fuzz FuzzLoadProgram -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -fuzz FuzzMixRotation -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -fuzz FuzzCursorCost -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -fuzz FuzzRunJobMC -fuzztime $(FUZZTIME) ./internal/machine/
	$(GO) test -fuzz FuzzParseScheduleSpec -fuzztime $(FUZZTIME) ./internal/farm/
	$(GO) test -fuzz FuzzAllocatorConservation -fuzztime $(FUZZTIME) ./internal/farm/
	$(GO) test -fuzz FuzzParseArrivalSpec -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz FuzzRecvFrame -fuzztime $(FUZZTIME) ./internal/netcluster/proto/
	$(GO) test -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/netcluster/wire/
	$(GO) test -fuzz FuzzRoundTraceRender -fuzztime $(FUZZTIME) ./internal/scenario/

# Randomized invariant soak: generated scenarios through the in-process
# mirror (on the event-skipping engine, the one that ships), the
# differential (in-process vs networked) driver, the farm allocator, and
# the engine differential (-des: the shipped engine against the
# per-quantum oracle, byte for byte), with every contract in
# docs/invariants.md checked each round.
soak:
	$(GO) run ./cmd/experiments soak -seeds 200 -diff 25 -farm 50 -des 50 -parallel 4

# Greedy-vs-exact-optimal gap measurement across a scenario corpus; the
# -max-gap gate mirrors invariant.DefaultGap's calibration (worst
# observed per-pass gap 0.146 over 600 seeds).
optgap:
	$(GO) run ./cmd/experiments optgap -seeds 300 -parallel 4 -max-gap 0.2

# Statement coverage for the invariant + scenario + optimal subsystems
# (the ISSUE 5 floor is 90% for the first two, ISSUE 10 adds the same
# floor for internal/optimal); coverage.out covers the whole repo for
# browsing with `go tool cover -html=coverage.out`.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) test -cover ./internal/invariant/ ./internal/scenario/ ./internal/optimal/

clean:
	$(GO) clean ./...
