package main

// The product contracts asserted through the shipped binary: every test
// here runs the real main() in child processes (this test binary,
// re-executed behind TestMain's switch, so the children are
// race-instrumented whenever the test is) against t.TempDir() archives
// and 127.0.0.1:0 servers.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

const (
	childEnv = "CAMPAIGN_TEST_CHILD"
	grid     = "../../testdata/campaigns/grid.json"  // 8 cells
	wireGrid = "../../testdata/campaigns/wire.json"  // 2 cells, real sockets
	specs    = "../../testdata/campaigns/specs.json" // 2 cells, one per spec file
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is `campaign args...` as a process that dies with the test: a
// hung child (a wedged socket under the wire backend) fails the test at
// the deadline instead of stalling the suite.
func child(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// runMain is a child run to completion: exit status 0 or the test fails. It
// returns the child's standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := child(t, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("campaign %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// start starts cmd; the test's end kills and reaps it if it is still
// running.
func start(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

var servingOn = regexp.MustCompile(`^serving .* on (http://\S+)`)

// startServe starts `campaign serve -addr 127.0.0.1:0 args...`, reads the
// address off the line it prints, and kills and reaps the server when
// the test ends.
func startServe(t *testing.T, args ...string) (base string) {
	t.Helper()
	cmd := child(t, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	start(t, cmd)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("campaign serve exited without printing its address (scan error: %v)", sc.Err())
	return ""
}

// get is one GET, conditional when ifNoneMatch is not empty; it returns
// status, ETag and body.
func get(t *testing.T, target, ifNoneMatch string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body.String()
}

// get200 is get for a view that must answer 200 and contain every want.
func get200(t *testing.T, target string, want ...string) (etag, body string) {
	t.Helper()
	code, etag, body := get(t, target, "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", target, code, body)
	}
	wantAll(t, "GET "+target, body, want...)
	return etag, body
}

func wantAll(t *testing.T, what, text string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Fatalf("%s: no %q in:\n%s", what, w, text)
		}
	}
}

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// counts is the head of a manifest document (manifest.json or
// manifests/<owner>.json).
type counts struct{ Runs, Hits, Misses, Dups, Failures int }

func manifest(t *testing.T, path string) counts {
	t.Helper()
	var c counts
	if err := json.Unmarshal([]byte(read(t, path)), &c); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return c
}

// executions counts the ledger lines recording a fresh execution.
func executions(t *testing.T, dir campaign.Dir) int {
	t.Helper()
	return strings.Count(read(t, dir.Index()), `"cache":"miss"`)
}

// strictJSONL is the strict complement of the tolerant readers: every
// line of data must decode to a JSON object — no torn-line tolerance —
// and check sees each one.
func strictJSONL(t *testing.T, what string, data []byte, check func(obj map[string]any) error) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		var obj map[string]any
		err := json.Unmarshal(line, &obj)
		if err == nil {
			err = check(obj)
		}
		if err != nil {
			t.Fatalf("%s line %d: %v\n%s", what, i+1, err, line)
		}
	}
}

// eventsSchema is the /events payload schema: integer ids strictly
// increasing from >= 1, a non-empty kind, any key a content address.
func eventsSchema() func(map[string]any) error {
	var last float64
	return func(obj map[string]any) error {
		id, _ := obj["id"].(float64)
		if id < 1 || id != float64(int64(id)) || id <= last {
			return errors.New("id is not an integer >= 1 above the previous id")
		}
		last = id
		if kind, _ := obj["kind"].(string); kind == "" {
			return errors.New("kind is not a non-empty string")
		}
		if raw, present := obj["key"]; present {
			if key, _ := raw.(string); !fleet.IsArchiveKey(key) {
				return errors.New("key is not a 64-hex content address")
			}
		}
		return nil
	}
}

// The resume contract: the grid run twice into one archive, at different
// job counts, resolves the second invocation entirely from the
// content-addressed cache and reproduces the aggregate byte for byte.
// (In process: campaign.TestExecuteResumeIsExact.)
func TestResumeIsExactAcrossInvocations(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	wantAll(t, "-dry-run", runMain(t, "run", "-spec", grid, "-dry-run"), "expands to 8 runs")
	runMain(t, "run", "-spec", grid, "-out", string(dir), "-jobs", "4")
	cold := read(t, dir.CSV())
	if c := manifest(t, dir.Manifest()); c.Misses != 8 || c.Failures != 0 {
		t.Fatalf("cold manifest: %+v, want 8 misses", c)
	}
	runMain(t, "run", "-spec", grid, "-out", string(dir), "-jobs", "1")
	if warm := read(t, dir.CSV()); warm != cold {
		t.Fatalf("campaign.csv moved across resume:\n%s\nwas:\n%s", warm, cold)
	}
	if c := manifest(t, dir.Manifest()); c.Hits != 8 || c.Misses != 0 || c.Failures != 0 {
		t.Fatalf("warm manifest: %+v, want 8 hits, 0 misses, 0 failures", c)
	}
}

// A scenario sweep is a campaign listing the spec files: one
// campaign.csv row per file, in listed order, each recovering the
// file's two declared sites.
func TestSpecFileSweep(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	runMain(t, "run", "-spec", specs, "-out", string(dir))
	rows := strings.Split(strings.TrimSpace(read(t, dir.CSV())), "\n")
	header := strings.Split(rows[0], ",")
	clusters, nmi := slices.Index(header, "clusters"), slices.Index(header, "nmi")
	if len(rows) != 3 || clusters < 0 || nmi < 0 {
		t.Fatalf("campaign.csv is not a header and two rows:\n%s", strings.Join(rows, "\n"))
	}
	for i, file := range []string{"../specs/twin.json", "../specs/quad.json"} {
		cells := strings.Split(rows[1+i], ",")
		if cells[1] != file || cells[clusters] != "2" || cells[nmi] != "1" {
			t.Fatalf("row %d = %s; want %s with 2 clusters at NMI 1", i, rows[1+i], file)
		}
	}
}

// The fleet contract across OS processes: two concurrent -fleet workers
// sharing one archive partition the grid (the ledger shows each of the 8
// runs executed exactly once) and finalize the single-process aggregate;
// a third worker resolves everything from the shared cache. (In one
// process: campaign.TestFleetTwoWorkersExecuteExactlyOnce.)
func TestFleetProcessesExecuteExactlyOnce(t *testing.T) {
	ref, dir := campaign.Dir(t.TempDir()), campaign.Dir(t.TempDir())
	runMain(t, "run", "-spec", grid, "-out", string(ref), "-jobs", "2")
	want := read(t, ref.CSV())

	worker := func(owner string) []string {
		return []string{"run", "-spec", grid, "-out", string(dir), "-fleet", "-owner", owner, "-jobs", "2"}
	}
	a := child(t, worker("a")...)
	var aOut bytes.Buffer
	a.Stdout, a.Stderr = &aOut, &aOut
	start(t, a)
	runMain(t, worker("b")...)
	if err := a.Wait(); err != nil {
		t.Fatalf("fleet worker a: %v\n%s", err, aOut.Bytes())
	}
	if got := read(t, dir.CSV()); got != want {
		t.Fatalf("fleet campaign.csv differs from the single-process run:\n%s\nwant:\n%s", got, want)
	}
	if n := executions(t, dir); n != 8 {
		t.Fatalf("ledger records %d executions, want exactly 8", n)
	}
	if c := manifest(t, dir.Manifest()); c.Misses != 8 {
		t.Fatalf("quorum manifest: %+v, want 8 misses", c)
	}

	runMain(t, worker("c")...)
	if c := manifest(t, dir.OwnerManifest("c")); c.Misses != 0 || c.Hits != 8 {
		t.Fatalf("late worker's manifest: %+v, want 0 misses, 8 hits", c)
	}
	if n := executions(t, dir); n != 8 {
		t.Fatalf("ledger records %d executions after a warm worker, want still 8", n)
	}
	if got := read(t, dir.CSV()); got != want {
		t.Fatal("a warm worker moved campaign.csv")
	}
}

// The query layer over a finished archive: /status counts match the
// ledger's exactly-once counts, /marginals/intensity aggregates every
// cell on the dynamics axis, an ETag replay is a 304, and the archive
// diffed against itself has no regressions.
func TestServeAnswersFromTheArchive(t *testing.T) {
	dir := t.TempDir()
	runMain(t, "run", "-spec", grid, "-out", dir, "-jobs", "2")
	base := startServe(t, "-out", dir)
	etag, _ := get200(t, base+"/status", `"executed": 8`, `"archived": 8`)
	get200(t, base+"/marginals/intensity", `"axis": "dynamics"`, `"cells": 8`)
	if etag == "" {
		t.Fatal("/status carries no ETag")
	}
	if code, _, body := get(t, base+"/status", etag); code != http.StatusNotModified || body != "" {
		t.Fatalf("ETag replay: status %d, %d body bytes, want a bodyless 304", code, len(body))
	}
	get200(t, base+"/diff?base="+url.QueryEscape(dir), `"regression_count": 0`)
}

// The real-socket backend: a wire campaign run twice into one archive
// is attributed to the wire backend exactly once per run, the second
// invocation reuses the measurements instead of repeating them, and
// status reports the attribution.
func TestWireRunsAreReusedNotRecomputed(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	wireLines := func() int { return strings.Count(read(t, dir.Index()), `"backend":"wire"`) }
	runMain(t, "run", "-spec", wireGrid, "-dry-run")
	runMain(t, "run", "-spec", wireGrid, "-out", string(dir))
	if n := wireLines(); n != 2 {
		t.Fatalf("ledger attributes %d runs to the wire backend, want 2", n)
	}
	runMain(t, "run", "-spec", wireGrid, "-out", string(dir))
	if c := manifest(t, dir.Manifest()); c.Misses != 0 || c.Failures != 0 {
		t.Fatalf("second invocation: %+v, want 0 misses, 0 failures", c)
	}
	if n := wireLines(); n != 2 {
		t.Fatalf("ledger attributes %d runs to the wire backend after the warm run, want still 2", n)
	}
	wantAll(t, "status", runMain(t, "status", "-out", string(dir)), "backends: wire 2")
}

// The telemetry layer: a traced run writes one strict-JSONL trace with
// at least one span per computed cell, `status -v` aggregates them into
// the phase breakdown, and `serve -pprof` exposes every instrumented
// layer's metric families and a live pprof index.
func TestTracesStatusAndMetrics(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	runMain(t, "run", "-spec", grid, "-out", string(dir), "-jobs", "2", "-trace", dir.Traces())
	traces, err := filepath.Glob(filepath.Join(dir.Traces(), "*.jsonl"))
	if err != nil || len(traces) != 8 {
		t.Fatalf("%d trace files (%v), want 8", len(traces), err)
	}
	for _, path := range traces {
		spans := 0
		strictJSONL(t, path, []byte(read(t, path)), func(obj map[string]any) error {
			if name, _ := obj["name"].(string); name != "" {
				spans++
			}
			return nil
		})
		if spans == 0 {
			t.Fatalf("%s holds no span", path)
		}
	}
	wantAll(t, "status -v", runMain(t, "status", "-out", string(dir), "-v"),
		"phase breakdown (8 traced runs)", "measure", "MEAN")

	base := startServe(t, "-out", string(dir), "-pprof")
	get200(t, base+"/status")
	get200(t, base+"/metrics",
		"\nrepro_core_iterations_total", "\nrepro_substrate_clone_seconds_total",
		"\nrepro_campaign_cells_total", "\nrepro_fleet_ledger_appends_total",
		"\nrepro_wire_handshakes_total", `repro_http_requests_total{endpoint="status"} 1`)
	get200(t, base+"/debug/pprof/")
}

// The live-dashboard path: a `serve -ingest` hub over an empty
// directory, an SSE subscriber attached before any work starts, and a
// grid run into a separate archive that streams its manifest lines to
// the hub with -report-to. The stream delivers each of the 8 cells
// exactly once and replays on reconnect, the plots are byte-stable, the
// hub's counts match the reporting archive's ledger, and reporting is
// inert: an unreported run finalizes the same bytes.
func TestDashboardFollowsRemoteWorker(t *testing.T) {
	hub, src, ref := t.TempDir(), campaign.Dir(t.TempDir()), campaign.Dir(t.TempDir())
	base := startServe(t, "-out", hub, "-ingest", "-events-interval", "100ms")

	live := subscribe(t, base, "")
	runMain(t, "run", "-spec", grid, "-out", string(src), "-jobs", "2", "-owner", "w1", "-report-to", base)
	var payloads bytes.Buffer
	cells, executed, lastID := map[string]int{}, 0, 0.0
	for len(cells) < 8 || executed < 8 {
		ev, ok := <-live
		if !ok {
			t.Fatalf("/events ended after %d cells, %d executions:\n%s", len(cells), executed, payloads.Bytes())
		}
		payloads.Write(ev.data)
		payloads.WriteByte('\n')
		key, _ := ev.obj["key"].(string)
		switch ev.obj["kind"] {
		case "cell-finished":
			cells[key]++
		case "run-executed":
			executed++
		}
		lastID, _ = ev.obj["id"].(float64)
	}
	strictJSONL(t, "/events", payloads.Bytes(), eventsSchema())
	for key, n := range cells {
		if n != 1 {
			t.Fatalf("cell %s finished %d times on the stream", key, n)
		}
	}

	// A reconnect resumes just after its Last-Event-ID.
	replayed := 0
	for ev := range subscribe(t, base, "4") {
		id, _ := ev.obj["id"].(float64)
		if replayed == 0 && id != 5 {
			t.Fatalf("Last-Event-ID: 4 resumed at id %v, want 5", id)
		}
		replayed++
		if id >= lastID {
			break
		}
	}
	if replayed < 12 {
		t.Fatalf("replay delivered %d events, want >= 12", replayed)
	}

	etag, _ := get200(t, base+"/plots/intensity.svg", "mean_q")
	if etag == "" {
		t.Fatal("/plots/intensity.svg carries no ETag")
	}
	for i := 0; i < 2; i++ {
		if code, _, _ := get(t, base+"/plots/intensity.svg", etag); code != http.StatusNotModified {
			t.Fatalf("plot ETag replay %d: status %d, want 304", i+1, code)
		}
	}
	get200(t, base+"/dashboard", "EventSource")
	get200(t, base+"/status", `"executed": 8`, `"owner": "w1"`)

	if n := executions(t, src); n != 8 {
		t.Fatalf("reporting archive's ledger records %d executions, want 8", n)
	}
	runMain(t, "run", "-spec", grid, "-out", string(ref), "-jobs", "2", "-owner", "w1")
	if read(t, src.CSV()) != read(t, ref.CSV()) {
		t.Fatal("-report-to moved campaign.csv")
	}
	wantAll(t, "diff", runMain(t, "diff", "-out", string(src), "-base", string(ref)), "regressions: 0")
}

type sseEvent struct {
	data []byte
	obj  map[string]any
}

// subscribe attaches to base/events (resuming after lastEventID when
// given) and delivers each data payload; the channel closes when the
// stream ends, which the test's end forces.
func subscribe(t *testing.T, base, lastEventID string) <-chan sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan sseEvent)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			ev := sseEvent{data: bytes.Clone(data)}
			if json.Unmarshal(data, &ev.obj) != nil {
				ev.obj = map[string]any{} // strictJSONL reports the line
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// Misuse is reported on standard error with a non-zero status: no
// subcommand prints the usage text, an unknown one names the known ones.
func TestUnknownSubcommandFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{nil, 2, "campaign run    -spec grid.json -out DIR"},
		{[]string{"frobnicate"}, 1, `unknown subcommand "frobnicate" (have: run, status, serve, diff, gc)`},
	} {
		cmd := child(t, tc.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.exit || len(out) != 0 {
			t.Fatalf("campaign %v: err %v, stdout %q; want exit status %d and nothing on stdout", tc.args, err, out, tc.exit)
		}
		wantAll(t, "stderr", stderr.String(), tc.want)
	}
}
