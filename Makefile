# Tier-1 verification and the CI entry points. CI (.github/workflows/ci.yml)
# runs the same targets, so a green `make ci` locally means a green PR.
# The product contracts (resume, fleet, serve, wire, telemetry, dashboard,
# dynamics) are Go tests that drive the real binaries: `go test ./cmd/...`,
# part of `test` and, race-instrumented, of `race`.

GO ?= go

.PHONY: all build examples test bench-test race vet fmt-check size layout-check bench-smoke fuzz-smoke ci

all: build

build:
	$(GO) build ./...

# examples must always compile: they are the documented entry points.
examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# bench-test vets and tests the separately-built repro/bench module, so an
# API removal that breaks the benchmark fails here, not at benchmark time.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# race runs the -short suite: the skipped tests re-drive paths the short
# suite already races (core's worker pool through core's own tests, the
# wire check through internal/wire, substrate and cmd/campaign). `test`
# runs everything. It still needs more than go test's default 10m on slow
# machines.
race:
	$(GO) test -race -short -timeout 30m ./...

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
# compile-and-execute gate, not a timing run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# fuzz-smoke runs each fuzz target's checked-in seed corpus
# (<package>/testdata/fuzz/<target>) and then ten seconds of new inputs,
# one target per line because go test takes one -fuzz target at a time.
# FuzzReadGraph: the graph-archive reader must never panic, whatever it
# accepts the encoding/json reader it replaced (kept in the test) must
# read as the same graph bit for bit, and that graph must survive a write
# and a re-read unchanged. FuzzScanLines:
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
# file holds, Decode and Compile never panic, and a spec Decode accepts
# compiles to a dataset of exactly its NumHosts hosts. A failing input is
# written to that corpus directory; check it in with the fix (a spec
# panic is fixed in Spec.Validate).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadGraph -fuzztime=10s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzScanLines -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotAdvance -fuzztime=10s ./internal/archive
	$(GO) test -run='^$$' -fuzz=FuzzSolveCertificate -fuzztime=10s ./internal/simnet
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadHandshake -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzSpecCompile -fuzztime=10s ./internal/scenario

ci: fmt-check vet layout-check build examples bench-test race bench-smoke fuzz-smoke
