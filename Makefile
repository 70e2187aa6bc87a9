# Tier-1 verification and the CI entry points. CI (.github/workflows/ci.yml)
# runs the same targets, so a green `make ci` locally means a green PR.

GO ?= go

.PHONY: all build examples test bench-test race vet fmt-check size layout-check bench-smoke fuzz-smoke spec-smoke dynamics-smoke campaign-smoke fleet-smoke serve-smoke wire-smoke obs-smoke dashboard-smoke ci

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

# The race suite needs well over go test's default 10m on slow machines.
race:
	$(GO) test -race -timeout 30m ./...

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

# bench-smoke runs every benchmark exactly once — a compile-and-execute
# gate, not a timing run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout 30m ./...

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
# fresh read shows. FuzzSolveCertificate: whatever topology and flow churn
# the bytes decode to, every allocation simnet.solve produces, on the network
# as built and on a Clone, passes the max-min certificate and equals the
# reference solver's bit for bit. A failing input is written to that corpus
# directory; check it in with the fix.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadGraph -fuzztime=10s ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzScanLines -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotAdvance -fuzztime=10s ./internal/archive
	$(GO) test -run='^$$' -fuzz=FuzzSolveCertificate -fuzztime=10s ./internal/simnet

# spec-smoke runs a custom JSON scenario end-to-end through the CLI with
# parallel measurement — the declarative path a user would take.
spec-smoke:
	$(GO) run ./cmd/bttomo -spec testdata/specs/twin.json -iterations 3 -scale 0.2 -workers 2
	$(GO) run ./cmd/bttomo -list

# dynamics-smoke runs the time-varying drift fixture (link drift, a
# transient failure, churn, a burst) end-to-end and asserts the dynamics
# determinism contract: Workers=1 and Workers=4 must archive bit-identical
# measurement graphs.
dynamics-smoke:
	$(GO) run ./cmd/bttomo -spec testdata/specs/drift.json -iterations 6 -scale 0.1 -workers 1 -save /tmp/bttomo_drift_w1.json
	$(GO) run ./cmd/bttomo -spec testdata/specs/drift.json -iterations 6 -scale 0.1 -workers 4 -save /tmp/bttomo_drift_w4.json
	cmp /tmp/bttomo_drift_w1.json /tmp/bttomo_drift_w4.json
	@rm -f /tmp/bttomo_drift_w1.json /tmp/bttomo_drift_w4.json

# campaign-smoke asserts the campaign resume contract end to end: the
# same grid run twice into the same archive (at different job counts)
# must resolve the second invocation entirely from the content-addressed
# cache and reproduce the aggregate CSV byte for byte.
campaign-smoke:
	rm -rf /tmp/bttomo_campaign
	$(GO) run ./cmd/campaign run -spec testdata/campaigns/grid.json -dry-run
	$(GO) run ./cmd/campaign run -spec testdata/campaigns/grid.json -out /tmp/bttomo_campaign -jobs 4
	cp /tmp/bttomo_campaign/campaign.csv /tmp/bttomo_campaign_first.csv
	$(GO) run ./cmd/campaign run -spec testdata/campaigns/grid.json -out /tmp/bttomo_campaign -jobs 1
	cmp /tmp/bttomo_campaign/campaign.csv /tmp/bttomo_campaign_first.csv
	grep -q '"misses": 0' /tmp/bttomo_campaign/manifest.json
	grep -q '"failures": 0' /tmp/bttomo_campaign/manifest.json
	@rm -rf /tmp/bttomo_campaign /tmp/bttomo_campaign_first.csv

# fleet-smoke asserts the distributed-execution contract end to end: two
# concurrent -fleet processes sharing one archive must partition the grid
# (the runs/index.json ledger shows every one of the 8 runs executed
# exactly once), finalize a campaign.csv byte-identical to the
# single-process run, and a third invocation must resolve 100% from the
# shared cache.
fleet-smoke:
	rm -rf /tmp/bttomo_fleet_ref /tmp/bttomo_fleet /tmp/bttomo_fleet_bin
	$(GO) build -o /tmp/bttomo_fleet_bin ./cmd/campaign
	/tmp/bttomo_fleet_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_fleet_ref -jobs 2
	/tmp/bttomo_fleet_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_fleet -fleet -owner a -jobs 2 & \
	pid=$$!; \
	/tmp/bttomo_fleet_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_fleet -fleet -owner b -jobs 2; st=$$?; \
	wait $$pid && test $$st -eq 0
	cmp /tmp/bttomo_fleet/campaign.csv /tmp/bttomo_fleet_ref/campaign.csv
	test "$$(grep -c '"cache":"miss"' /tmp/bttomo_fleet/runs/index.json)" -eq 8
	grep -q '"misses": 8' /tmp/bttomo_fleet/manifest.json
	/tmp/bttomo_fleet_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_fleet -fleet -owner c -jobs 2
	grep -q '"misses": 0' /tmp/bttomo_fleet/manifests/c.json
	grep -q '"hits": 8' /tmp/bttomo_fleet/manifests/c.json
	test "$$(grep -c '"cache":"miss"' /tmp/bttomo_fleet/runs/index.json)" -eq 8
	cmp /tmp/bttomo_fleet/campaign.csv /tmp/bttomo_fleet_ref/campaign.csv
	@rm -rf /tmp/bttomo_fleet_ref /tmp/bttomo_fleet /tmp/bttomo_fleet_bin

# serve-smoke asserts the query layer end to end: run the smoke grid,
# start `campaign serve` over the archive, and poll it the way a
# dashboard or CI gate would. /status counts must match the ledger's
# exactly-once counts (the grid's 8 unique runs), /marginals/intensity
# must aggregate every cell, an If-None-Match replay of the ETag must
# come back 304, and /diff of the archive against itself must report
# zero regressions.
serve-smoke:
	rm -rf /tmp/bttomo_serve /tmp/bttomo_serve_bin
	$(GO) build -o /tmp/bttomo_serve_bin ./cmd/campaign
	/tmp/bttomo_serve_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_serve -jobs 2
	test "$$(grep -c '"cache":"miss"' /tmp/bttomo_serve/runs/index.json)" -eq 8
	/tmp/bttomo_serve_bin serve -out /tmp/bttomo_serve -addr 127.0.0.1:8177 & \
	pid=$$!; sleep 1; st=0; \
	curl -sf http://127.0.0.1:8177/status >/tmp/bttomo_serve_status.json || st=1; \
	grep -q '"executed": 8' /tmp/bttomo_serve_status.json || st=1; \
	grep -q '"archived": 8' /tmp/bttomo_serve_status.json || st=1; \
	curl -sf http://127.0.0.1:8177/marginals/intensity >/tmp/bttomo_serve_marg.json || st=1; \
	grep -q '"axis": "dynamics"' /tmp/bttomo_serve_marg.json || st=1; \
	grep -q '"cells": 8' /tmp/bttomo_serve_marg.json || st=1; \
	etag=$$(curl -sfI http://127.0.0.1:8177/status | tr -d '\r' | grep -i '^etag:' | cut -d' ' -f2); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" http://127.0.0.1:8177/status); \
	test "$$code" = 304 || st=1; \
	curl -sf "http://127.0.0.1:8177/diff?base=/tmp/bttomo_serve" >/tmp/bttomo_serve_diff.json || st=1; \
	grep -q '"regression_count": 0' /tmp/bttomo_serve_diff.json || st=1; \
	kill $$pid; test $$st -eq 0
	@rm -rf /tmp/bttomo_serve /tmp/bttomo_serve_bin /tmp/bttomo_serve_status.json /tmp/bttomo_serve_marg.json /tmp/bttomo_serve_diff.json

# wire-smoke asserts the real-socket backend end to end: a tiny wire
# campaign (real loopback TCP swarms, paced by the scenario topology)
# runs twice into one archive. The ledger must attribute each of the two
# runs to the wire backend exactly once, the second invocation must be
# 100% cache hits (wire measurements are reused, never recomputed), and
# `campaign status` must report the per-backend attribution. The timeout
# bounds a hung swarm: a wedged socket must fail the gate, not stall CI.
wire-smoke:
	rm -rf /tmp/bttomo_wire
	timeout 300 $(GO) run ./cmd/campaign run -spec testdata/campaigns/wire.json -dry-run
	timeout 300 $(GO) run ./cmd/campaign run -spec testdata/campaigns/wire.json -out /tmp/bttomo_wire
	test "$$(grep -c '"backend":"wire"' /tmp/bttomo_wire/runs/index.json)" -eq 2
	timeout 300 $(GO) run ./cmd/campaign run -spec testdata/campaigns/wire.json -out /tmp/bttomo_wire
	grep -q '"misses": 0' /tmp/bttomo_wire/manifest.json
	grep -q '"failures": 0' /tmp/bttomo_wire/manifest.json
	test "$$(grep -c '"backend":"wire"' /tmp/bttomo_wire/runs/index.json)" -eq 2
	timeout 60 $(GO) run ./cmd/campaign status -out /tmp/bttomo_wire | grep -q 'backends: wire 2'
	@rm -rf /tmp/bttomo_wire

# obs-smoke asserts the telemetry layer end to end: a traced grid run
# must write one parseable trace JSONL per computed cell without moving
# the serve ETag's file set, `campaign status -v` must print the phase
# breakdown aggregated from them, and a -pprof serve over the archive
# must expose every instrumented layer's metric families on /metrics
# plus a live pprof index.
obs-smoke:
	rm -rf /tmp/bttomo_obs /tmp/bttomo_obs_bin
	$(GO) build -o /tmp/bttomo_obs_bin ./cmd/campaign
	/tmp/bttomo_obs_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_obs -jobs 2 -trace /tmp/bttomo_obs/traces
	test "$$(ls /tmp/bttomo_obs/traces/*.jsonl | wc -l)" -eq 8
	$(GO) run ./cmd/jsonlcheck /tmp/bttomo_obs/traces/*.jsonl
	/tmp/bttomo_obs_bin status -out /tmp/bttomo_obs -v >/tmp/bttomo_obs_status.txt
	grep -q 'phase breakdown (8 traced runs)' /tmp/bttomo_obs_status.txt
	grep -q 'measure' /tmp/bttomo_obs_status.txt
	grep -q 'MEAN' /tmp/bttomo_obs_status.txt
	/tmp/bttomo_obs_bin serve -out /tmp/bttomo_obs -addr 127.0.0.1:8178 -pprof & \
	pid=$$!; sleep 1; st=0; \
	curl -sf http://127.0.0.1:8178/status >/dev/null || st=1; \
	curl -sf http://127.0.0.1:8178/metrics >/tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q '^repro_core_iterations_total' /tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q '^repro_substrate_clone_seconds_total' /tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q '^repro_campaign_cells_total' /tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q '^repro_fleet_ledger_appends_total' /tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q '^repro_wire_handshakes_total' /tmp/bttomo_obs_metrics.txt || st=1; \
	grep -q 'repro_http_requests_total{endpoint="status"} 1' /tmp/bttomo_obs_metrics.txt || st=1; \
	curl -sf http://127.0.0.1:8178/debug/pprof/ >/dev/null || st=1; \
	kill $$pid; test $$st -eq 0
	@rm -rf /tmp/bttomo_obs /tmp/bttomo_obs_bin /tmp/bttomo_obs_status.txt /tmp/bttomo_obs_metrics.txt

# dashboard-smoke asserts the live-dashboard path end to end: a serve
# instance with -ingest is the hub, an SSE subscriber attaches before any
# work starts, and a grid run into a SEPARATE archive streams every
# manifest line to the hub with -report-to. The stream must deliver each
# of the grid's 8 cells exactly once (and replay correctly on reconnect
# via Last-Event-ID), every payload must pass `jsonlcheck -schema
# events`, the SVG plots must be byte-stable (If-None-Match replay → 304,
# twice), /dashboard must serve the embedded page with its event wiring,
# the hub's per-owner counts must match the reporting archive's ledger,
# and reporting must be provably inert: a second, unreported run must
# finalize a byte-identical campaign.csv.
dashboard-smoke:
	rm -rf /tmp/bttomo_dash_hub /tmp/bttomo_dash_src /tmp/bttomo_dash_ref /tmp/bttomo_dash_bin /tmp/bttomo_dash_check /tmp/bttomo_dash_sse.txt /tmp/bttomo_dash_sse2.txt /tmp/bttomo_dash_events.jsonl
	$(GO) build -o /tmp/bttomo_dash_bin ./cmd/campaign
	$(GO) build -o /tmp/bttomo_dash_check ./cmd/jsonlcheck
	mkdir -p /tmp/bttomo_dash_hub
	/tmp/bttomo_dash_bin serve -out /tmp/bttomo_dash_hub -addr 127.0.0.1:8179 -ingest -events-interval 100ms & \
	pid=$$!; sleep 1; st=0; \
	curl -sN --max-time 120 http://127.0.0.1:8179/events >/tmp/bttomo_dash_sse.txt & \
	ssepid=$$!; sleep 1; \
	/tmp/bttomo_dash_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_dash_src -jobs 2 -owner w1 -report-to http://127.0.0.1:8179 || st=1; \
	for i in $$(seq 1 60); do \
		test "$$(grep -c '"kind":"cell-finished"' /tmp/bttomo_dash_sse.txt 2>/dev/null)" -ge 8 && \
		test "$$(grep -c '"kind":"run-executed"' /tmp/bttomo_dash_sse.txt 2>/dev/null)" -ge 8 && break; \
		sleep 1; done; \
	kill $$ssepid 2>/dev/null; wait $$ssepid 2>/dev/null; \
	test "$$(grep -c '"kind":"cell-finished"' /tmp/bttomo_dash_sse.txt)" -eq 8 || st=1; \
	test "$$(grep '"kind":"cell-finished"' /tmp/bttomo_dash_sse.txt | grep -o '"key":"[0-9a-f]*"' | sort -u | wc -l)" -eq 8 || st=1; \
	grep '^data: ' /tmp/bttomo_dash_sse.txt | cut -d' ' -f2- >/tmp/bttomo_dash_events.jsonl; \
	/tmp/bttomo_dash_check -schema events /tmp/bttomo_dash_events.jsonl || st=1; \
	curl -sN --max-time 5 -H 'Last-Event-ID: 4' http://127.0.0.1:8179/events >/tmp/bttomo_dash_sse2.txt; \
	grep '^data: ' /tmp/bttomo_dash_sse2.txt | head -1 | grep -q '"id":5,' || st=1; \
	test "$$(grep -c '^data: ' /tmp/bttomo_dash_sse2.txt)" -ge 12 || st=1; \
	etag=$$(curl -sfI http://127.0.0.1:8179/plots/intensity.svg | tr -d '\r' | grep -i '^etag:' | cut -d' ' -f2); \
	test -n "$$etag" || st=1; \
	for i in 1 2; do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" http://127.0.0.1:8179/plots/intensity.svg); \
		test "$$code" = 304 || st=1; done; \
	curl -sf http://127.0.0.1:8179/plots/intensity.svg | grep -q 'mean_q' || st=1; \
	curl -sf http://127.0.0.1:8179/dashboard | grep -q 'EventSource' || st=1; \
	curl -sf http://127.0.0.1:8179/status >/tmp/bttomo_dash_hub_status.json || st=1; \
	grep -q '"executed": 8' /tmp/bttomo_dash_hub_status.json || st=1; \
	grep -q '"owner": "w1"' /tmp/bttomo_dash_hub_status.json || st=1; \
	kill $$pid; test $$st -eq 0
	test "$$(grep -c '"cache":"miss"' /tmp/bttomo_dash_src/runs/index.json)" -eq 8
	/tmp/bttomo_dash_bin run -spec testdata/campaigns/grid.json -out /tmp/bttomo_dash_ref -jobs 2 -owner w1
	cmp /tmp/bttomo_dash_src/campaign.csv /tmp/bttomo_dash_ref/campaign.csv
	/tmp/bttomo_dash_bin diff -out /tmp/bttomo_dash_src -base /tmp/bttomo_dash_ref | grep -q 'regressions: 0'
	@rm -rf /tmp/bttomo_dash_hub /tmp/bttomo_dash_src /tmp/bttomo_dash_ref /tmp/bttomo_dash_bin /tmp/bttomo_dash_check /tmp/bttomo_dash_sse.txt /tmp/bttomo_dash_sse2.txt /tmp/bttomo_dash_events.jsonl /tmp/bttomo_dash_hub_status.json

ci: fmt-check vet layout-check build examples bench-test race bench-smoke fuzz-smoke spec-smoke dynamics-smoke campaign-smoke fleet-smoke serve-smoke wire-smoke obs-smoke dashboard-smoke
