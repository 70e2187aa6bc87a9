# Tier-1 verification and the CI entry points. CI (.github/workflows/ci.yml)
# runs the same targets, so a green `make ci` locally means a green PR.
# The product contracts (resume, fleet, serve, wire, telemetry, dashboard,
# dynamics) are Go tests that drive the real binaries: `go test ./cmd/...`,
# part of `test` and, race-instrumented, of `race`.

GO ?= go

.PHONY: all build examples test bench-test race budgets guards slow vet fmt-check size layout-check bench-smoke fuzz-smoke ci

all: build

build:
	$(GO) build ./...

# examples must always compile: they are the documented entry points,
# written against the repro facade alone. The six that finish in about a
# second or two also run, and one exiting non-zero fails the target;
# bottleneck, scheduling, multisite and quickstart (3-7 s each) only build.
RUN_EXAMPLES = customspec realwire dynamics campaign query fleet
examples:
	$(GO) build ./examples/...
	@for e in $(RUN_EXAMPLES); do echo "go run ./examples/$$e"; \
		$(GO) run ./examples/$$e >/dev/null || exit 1; done

test:
	$(GO) test ./...

# bench-test vets and tests the separately-built repro/bench module, so an
# API removal that breaks the benchmark fails here, not at benchmark time.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# race runs the -short suite: the skipped tests re-drive paths the short
# suite already races (core's worker pool through core's own tests, the
# wire check through internal/wire, substrate and cmd/campaign), or, like
# the export guard (exports_test.go) and the fused multiply-add guard
# (fma_test.go), have no concurrency for the race detector to check.
# `guards` and `slow` run the skipped tests without it, and `test` runs
# everything. It still needs more than go test's default 10m on slow
# machines.
race:
	$(GO) test -race -short -timeout 30m ./...

# budgets runs, without the race detector, the seventeen allocation and
# byte budget tests that skip themselves, or their budget, under it: CI
# otherwise runs only `race`. `go test -list` with this pattern over
# ./... names these seventeen and nothing else, and budgets_test.go fails
# for a test that reads the -race setting and is missing here.
BUDGET_TESTS = ^(TestReadGraphAllocBudget|TestWriteGraphAllocBudget|TestWriteGraphParallelAllocBudget|TestWarmMeasureAllocBudget|TestSendWarmPathAllocatesNothing|TestLinkOperationsAllocateNothing|TestColdBroadcastBytesPerConnection|TestColdBroadcastBytesPerPiece|TestAdvanceCostsWhatWasAppended|TestAdjacencyBudget|TestWarmViewAllocBudget|TestWarmViewByteBudget|TestHierarchyAllocatesLessThanACopy|TestWarmIterationAllocBudget|TestLouvainAllocBudget|TestReplicaAllocBudget|TestBroadcasterReuseMatchesFresh)$$
BUDGET_PKGS = ./internal/persist ./internal/substrate ./internal/simnet ./internal/bittorrent ./internal/archive ./internal/graph ./internal/archive/serve ./internal/core ./internal/cluster
budgets:
	$(GO) test -run '$(BUDGET_TESTS)' $(BUDGET_PKGS)

# guards runs the two whole-module checks that skip under -short, so
# `race` never runs them: the export guard (exports_test.go: every
# exported identifier under internal/ is used by a product path) and the
# fused multiply-add guard (fma_test.go: the measured packages compile to
# no implicit FMA on arm64, ppc64le, s390x or riscv64).
GUARD_TESTS = ^(TestOnlyProductPathsExport|TestNoImplicitFusedMultiplyAdd)$$
guards:
	$(GO) test -run '$(GUARD_TESTS)' .

# slow runs, without the race detector, the other tests that skip under
# -short, so `race` never runs them: the long experiment tests (the
# dataset suite and its Workers contract, E13, E15, E16, E17) and core's
# real-socket wire backend check. `go test -list` with this pattern over
# ./... names these seven and nothing else, and budgets_test.go fails for
# a test that reads testing.Short and neither this list (in SLOW_PKGS)
# nor GUARD_TESTS matches.
SLOW_TESTS = ^(TestDatasetsSmallScale|TestDatasetsOutputIsIdenticalAcrossWorkers|TestAblationSmallScale|TestHierarchyExperimentSmallScale|TestStressExperimentSmallScale|TestDriftExperimentDegradesMonotonically|TestWireBackendClustersTwoSites)$$
SLOW_PKGS = ./internal/experiments ./internal/core
slow:
	$(GO) test -run '$(SLOW_TESTS)' $(SLOW_PKGS)

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# size prints the number ROADMAP.md tracks: non-test Go lines outside the
# separately-built bench/ module.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# layout-check holds the archive directory to one owner: the nine layout
# names may be spelled as a path component — a filepath.Join argument, a
# "+"-joined suffix, or a path literal — only in
# internal/campaign/layout.go (campaign.Dir). Everything else asks a Dir.
# JSON tags, map keys, URL routes and table cells such as "runs" are not
# paths and do not match; tests and bench/ are exempt.
LAYOUT_DIRS = runs|leases|manifests|traces
LAYOUT_FILES = index\.json|manifest\.log|manifest\.json|campaign\.csv|summary\.txt
layout-check:
	@out="$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
		'filepath\.Join\(.*"($(LAYOUT_DIRS)|$(LAYOUT_FILES))"|\+ *"/($(LAYOUT_DIRS)|$(LAYOUT_FILES))["/]|"($(LAYOUT_DIRS))/|"[^" ]*/($(LAYOUT_FILES))"' . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v '^\./internal/campaign/layout\.go:')"; \
	if [ -n "$$out" ]; then \
		echo "archive layout names spelled outside internal/campaign/layout.go:"; echo "$$out"; exit 1; fi

# bench-smoke runs every per-package benchmark exactly once — a
# compile-and-execute gate, not a timing run. -short leaves out
# simnet's 2,048-host broadcast, about three minutes of one run;
# BenchmarkBroadcastScaling still runs at 64, 256 and 1,024 hosts.
bench-smoke:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# fuzz-smoke runs each fuzz target's checked-in seed corpus
# (<package>/testdata/fuzz/<target>) and then ten seconds of new inputs,
# one target per line because go test takes one -fuzz target at a time.
# FuzzReadGraph: the graph-archive reader must never panic, whatever it
# accepts the encoding/json reader it replaced (kept in the test) must
# read as the same graph bit for bit, and that graph must survive a write
# and a re-read unchanged. FuzzPlainFloat: whatever digits and point the
# bytes make, the graph reader's one-pass weight converter reads them to
# exactly strconv.ParseFloat's bits, or refuses what it must. FuzzScanLines:
# the ledger/manifest line reader must never fail or panic, and resuming
# from an offset it returned must neither repeat nor lose a line.
# FuzzSnapshotAdvance: whatever a writer, a crash or an operator does to
# the ledger and manifest.log (append, tear, truncate, replace, delete),
# a long-lived archive.Snapshot advanced after each step shows what a
# fresh read shows, and one followed after each step hands over exactly
# the change feed a fresh read implies. FuzzSolveCertificate: whatever
# topology and flow churn the bytes decode to, every allocation
# simnet.solve produces, on the network as built and on a Clone, passes
# the max-min certificate and equals the reference solver's bit for bit.
# FuzzDecode and FuzzReadHandshake: whatever bytes a remote peer sends,
# the wire decoders never panic, and a message Decode accepts re-encodes
# to exactly the bytes it consumed. FuzzSpecCompile: whatever a spec
# file holds, Decode and Compile never panic, a spec Decode accepts
# compiles to a dataset of exactly its NumHosts hosts, and the same bytes
# followed by one stray byte are refused. FuzzIngest: whatever body a
# remote writer posts to POST /ingest, the handler never panics and
# answers 200, 400 or 413, a 200's "ingested" is the number of lines
# appended to manifest.log, no appended line is longer than
# fleet.MaxLine, a fresh archive.Snapshot advances over the result, and
# Stamp() moves exactly when a line was appended. FuzzDecodeIndexEntry,
# FuzzDecodeEntry and FuzzReadHead: whatever a ledger line, a manifest
# line or a manifest document holds, the one-pass fast path
# (persist.Fields) reads it to a value json.Unmarshal decodes the same,
# reflect.DeepEqual, or declines it, and so declines everything
# json.Unmarshal rejects. FuzzSkip: persist.Fields steps over exactly the
# values json.Valid accepts (nested at most 64 deep), so the manifest
# head it reads is valid JSON. FuzzExpand: whatever a campaign file holds,
# Load and Expand never panic, an accepted grid expands to one cell per
# point of its cross-product, and every cell's key is 64 lower-case hex
# digits (fleet.IsArchiveKey), and a grid of more than 2^24 cells is
# refused. A failing input is written to that corpus directory; check it
# in with the fix (a spec panic is fixed in Spec.Validate).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadGraph -fuzztime=10s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzPlainFloat -fuzztime=10s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzScanLines -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotAdvance -fuzztime=10s ./internal/archive
	$(GO) test -run='^$$' -fuzz=FuzzSolveCertificate -fuzztime=10s ./internal/simnet
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadHandshake -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzSpecCompile -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzIngest -fuzztime=10s ./internal/archive/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecodeIndexEntry -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzSkip -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEntry -fuzztime=10s ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzReadHead -fuzztime=10s ./internal/archive
	$(GO) test -run='^$$' -fuzz=FuzzExpand -fuzztime=10s ./internal/campaign

ci: fmt-check vet layout-check build examples bench-test race budgets guards slow bench-smoke fuzz-smoke
