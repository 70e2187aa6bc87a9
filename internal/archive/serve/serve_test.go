package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/scenario"
)

// servedArchive executes a four-cell campaign and returns its directory
// plus a handler over it.
func servedArchive(t *testing.T) (string, http.Handler) {
	t.Helper()
	specPath := filepath.Join(t.TempDir(), "tiny.json")
	if err := persist.SaveSpec(specPath, scenario.NSites(2, 3, 890, 100)); err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.NewBuilder("serve-test").
		Scenario("2x2").
		ScenarioFile(specPath).
		Iterations(2).
		Seeds(1, 2).
		Scales(0.02).
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := campaign.Execute(spec, campaign.ExecOptions{OutDir: dir, Jobs: 2, Resume: true}); err != nil {
		t.Fatal(err)
	}
	st, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, NewHandler(st, Options{})
}

// get performs one request and decodes the JSON body into out when the
// response carries one.
func get(t *testing.T, h http.Handler, url string, header map[string]string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec
}

func TestStatusEndpoint(t *testing.T) {
	_, h := servedArchive(t)
	var st archive.Status
	rec := get(t, h, "/status", nil, &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("/status: %d\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("ETag") == "" {
		t.Fatal("/status has no ETag")
	}
	if st.Executed != 4 || st.Archived != 4 || !st.Finalized {
		t.Fatalf("status body wrong: %+v", st)
	}
}

// The polling contract: replaying the ETag yields a bodyless 304 while
// nothing changed; successive unconditional reads are byte-stable; a
// ledger append invalidates the tag.
func TestETagPolling(t *testing.T) {
	dir, h := servedArchive(t)
	rec1 := get(t, h, "/status", nil, nil)
	etag := rec1.Header().Get("ETag")

	rec2 := get(t, h, "/status", nil, nil)
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("repeated polls of an idle archive differ")
	}
	if rec2.Header().Get("ETag") != etag {
		t.Fatal("ETag drifted without writes")
	}

	// If-None-Match compares weakly (a compressing proxy rewrites "tag" to
	// W/"tag"), takes a list, and "*" matches any current representation.
	for _, match := range []string{etag, "W/" + etag, `"stale", ` + etag, `W/"stale",W/` + etag, "*"} {
		rec := get(t, h, "/status", map[string]string{"If-None-Match": match}, nil)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("If-None-Match %s: code %d, %d body bytes", match, rec.Code, rec.Body.Len())
		}
		if rec.Header().Get("ETag") != etag {
			t.Fatalf("If-None-Match %s: 304 carries ETag %q, want %q", match, rec.Header().Get("ETag"), etag)
		}
	}
	if rec := get(t, h, "/status", map[string]string{"If-None-Match": `W/"stale"`}, nil); rec.Code != http.StatusOK ||
		!bytes.Equal(rec.Body.Bytes(), rec1.Body.Bytes()) {
		t.Fatalf("stale validator: code %d, want the full 200 body", rec.Code)
	}

	if err := fleet.AppendIndex(filepath.Join(dir, "runs", "index.json"),
		fleet.IndexEntry{Key: strings.Repeat("ab", 32), Run: 9, Owner: "late"}); err != nil {
		t.Fatal(err)
	}
	rec4 := get(t, h, "/status", map[string]string{"If-None-Match": etag}, nil)
	if rec4.Code != http.StatusOK {
		t.Fatalf("stale ETag still matched after a ledger append: %d", rec4.Code)
	}
	if rec4.Header().Get("ETag") == etag {
		t.Fatal("ETag unchanged after a ledger append")
	}
}

func TestRunsEndpoints(t *testing.T) {
	_, h := servedArchive(t)
	var listing struct {
		Runs    int               `json:"runs"`
		Entries []archive.RunInfo `json:"entries"`
	}
	if rec := get(t, h, "/runs", nil, &listing); rec.Code != http.StatusOK {
		t.Fatalf("/runs: %d", rec.Code)
	}
	if listing.Runs != 4 || len(listing.Entries) != 4 {
		t.Fatalf("listing wrong: %+v", listing)
	}

	var detail archive.RunDetail
	key := listing.Entries[0].Key
	if rec := get(t, h, "/runs/"+key, nil, &detail); rec.Code != http.StatusOK {
		t.Fatalf("/runs/{key}: %d", rec.Code)
	}
	if detail.Key != key || detail.Doc == nil {
		t.Fatalf("detail wrong: %+v", detail)
	}

	if rec := get(t, h, "/runs/"+strings.Repeat("00", 32), nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key: want 404, got %d", rec.Code)
	}
	if rec := get(t, h, "/runs/not-a-key", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed key: want 400, got %d", rec.Code)
	}

	// The body is whole before the first byte is written, so the listing
	// goes out with its length, not chunked.
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("/runs: Content-Length %d, Transfer-Encoding %v, body %d bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

func TestMarginalsEndpoint(t *testing.T) {
	_, h := servedArchive(t)
	var m archive.Marginal
	if rec := get(t, h, "/marginals/intensity", nil, &m); rec.Code != http.StatusOK {
		t.Fatalf("/marginals/intensity: %d", rec.Code)
	}
	if m.Axis != "dynamics" || m.Cells != 4 {
		t.Fatalf("marginal wrong: %+v", m)
	}
	if rec := get(t, h, "/marginals/flavour", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown axis: want 404, got %d", rec.Code)
	}
}

// The error-mapping contract, end to end: the archive package
// classifies, the handler translates, and every endpoint agrees on
// which malformed requests are 400 and which missing resources are 404.
func TestStatusCodeMapping(t *testing.T) {
	dir, h := servedArchive(t)
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"index", "/", http.StatusOK},
		{"status", "/status", http.StatusOK},
		{"runs", "/runs", http.StatusOK},
		{"run detail", "/runs/" + strings.Repeat("ab", 32), http.StatusNotFound},
		{"malformed key", "/runs/not-a-key", http.StatusBadRequest},
		{"traversal key", "/runs/..%2f..%2fetc%2fpasswd", http.StatusBadRequest},
		{"marginal ok", "/marginals/dynamics", http.StatusOK},
		{"marginal alias", "/marginals/intensity", http.StatusOK},
		{"unknown axis", "/marginals/flavour", http.StatusNotFound},
		{"plot ok", "/plots/intensity.svg", http.StatusOK},
		{"plot phases", "/plots/phases.svg", http.StatusOK},
		{"plot unknown axis", "/plots/flavour.svg", http.StatusNotFound},
		{"plot without suffix", "/plots/intensity", http.StatusNotFound},
		{"diff removed", "/diff?base=" + dir, http.StatusNotFound},
		{"dashboard", "/dashboard", http.StatusOK},
		{"unknown path", "/nonsense", http.StatusNotFound},
		{"ingest off", "/ingest", http.StatusNotFound},
	}
	for _, tc := range cases {
		rec := get(t, h, tc.url, nil, nil)
		if rec.Code != tc.want {
			t.Errorf("%s (%s): got %d, want %d\n%s", tc.name, tc.url, rec.Code, tc.want, rec.Body.String())
		}
		// An ETag names a representation; an error reply has none to cache.
		if rec.Code >= 400 && rec.Header().Get("ETag") != "" {
			t.Errorf("%s (%s): %d reply carries ETag %s", tc.name, tc.url, rec.Code, rec.Header().Get("ETag"))
		}
	}
}

// A conditional GET that matches costs the stamp's stat calls and nothing
// else: its allocations do not grow with the ledger, while those of a
// handler's first unconditional GET (which reads it) do; and it is
// answered without opening the files, so a ledger swapped for garbage
// behind an unmoved size and mtime still yields the 304.
func TestNotModifiedCostsNoRead(t *testing.T) {
	measure := func(lines int) (conditional, unconditional float64) {
		dir := t.TempDir()
		idx := filepath.Join(dir, "runs", "index.json")
		for i := 0; i < lines; i++ {
			if err := fleet.AppendIndex(idx, fleet.IndexEntry{Key: fmt.Sprintf("%064x", i+1), Run: i, Owner: "w"}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHandler(st, Options{})
		etag := get(t, h, "/runs", nil, nil).Header().Get("ETag")
		hit := func() {
			if rec := get(t, h, "/runs", map[string]string{"If-None-Match": etag}, nil); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
				t.Fatalf("conditional GET over %d lines: code %d, %d body bytes", lines, rec.Code, rec.Body.Len())
			}
		}
		conditional = testing.AllocsPerRun(10, hit)
		unconditional = testing.AllocsPerRun(3, func() { get(t, NewHandler(st, Options{}), "/runs", nil, nil) })

		fi, err := os.Stat(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idx, bytes.Repeat([]byte{'#'}, int(fi.Size())), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(idx, fi.ModTime(), fi.ModTime()); err != nil {
			t.Fatal(err)
		}
		hit()
		return conditional, unconditional
	}
	cond10, full10 := measure(10)
	cond2k, full2k := measure(2000)
	if cond2k > cond10+4 {
		t.Errorf("a 304 allocates %.0f times over 2000 ledger lines, %.0f over 10: it read the archive", cond2k, cond10)
	}
	if full2k < full10+2000 {
		t.Errorf("the control is broken: a cold 200 allocates %.0f times over 2000 lines, %.0f over 10", full2k, full10)
	}
}

// The server opens no directory a client names: there is no /diff (an
// archive is compared with `campaign diff`), whatever base is asked for.
func TestDiffEndpoint(t *testing.T) {
	dir, h := servedArchive(t)
	for _, url := range []string{"/diff?base=" + dir, "/diff?base=/", "/diff"} {
		if rec := get(t, h, url, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s: want 404, got %d", url, rec.Code)
		}
	}
}

func TestIndexEndpoint(t *testing.T) {
	_, h := servedArchive(t)
	var idx struct {
		Endpoints []string `json:"endpoints"`
		Axes      []string `json:"axes"`
	}
	if rec := get(t, h, "/", nil, &idx); rec.Code != http.StatusOK {
		t.Fatalf("/: %d", rec.Code)
	}
	if len(idx.Endpoints) == 0 || len(idx.Axes) == 0 {
		t.Fatalf("index empty: %+v", idx)
	}
	if !slices.Contains(idx.Endpoints, "/metrics") {
		t.Fatalf("index does not advertise /metrics: %v", idx.Endpoints)
	}
	if rec := get(t, h, "/nonsense", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path: want 404, got %d", rec.Code)
	}
}

// The campaign that servedArchive executes instruments the core and
// campaign layers through the process-wide registry, so /metrics must
// expose those families — plus the service's own request counter — in
// Prometheus text format, outside the ETag discipline.
func TestMetricsEndpoint(t *testing.T) {
	_, h := servedArchive(t)
	get(t, h, "/status", nil, nil) // populate the request counter
	rec := get(t, h, "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type: %q", ct)
	}
	if rec.Header().Get("ETag") != "" {
		t.Fatal("/metrics must not carry an ETag: it changes on every event")
	}
	body := rec.Body.String()
	for _, family := range []string{
		"repro_campaign_cells_total",
		"repro_core_iterations_total",
		`repro_http_requests_total{endpoint="status"}`,
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s\n%s", family, body)
		}
	}
}

// pprof is opt-in: absent by default, mounted under /debug/pprof/ when
// Options.Pprof is set.
func TestPprofGate(t *testing.T) {
	dir, h := servedArchive(t)
	if rec := get(t, h, "/debug/pprof/", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", rec.Code)
	}
	st, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHandler(st, Options{Pprof: true})
	rec := get(t, hp, "/debug/pprof/", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with Pprof on: %d", rec.Code)
	}
	var idx struct {
		Endpoints []string `json:"endpoints"`
	}
	if rec := get(t, hp, "/", nil, &idx); rec.Code != http.StatusOK {
		t.Fatalf("/: %d", rec.Code)
	}
	if !slices.Contains(idx.Endpoints, "/debug/pprof/") {
		t.Fatalf("pprof-enabled index does not advertise it: %v", idx.Endpoints)
	}
}

// One predicate for "a well-formed ledger line" (fleet.ScanIndex): a line
// whose key is not a content address used to be listed by /runs (whose
// /runs/x then answered 400), counted in /status ledger_lines and kept by
// a GC compaction, while the event feed ignored it. It is no run on any
// of the four surfaces.
func TestMalformedKeyLedgerLineIsNoRun(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	for i := 0; i < 3; i++ {
		if err := finishRun(dir, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"x", "../../etc/passwd"} {
		if err := fleet.AppendIndex(dir.Index(), fleet.IndexEntry{Key: key, Run: 3, Owner: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := archive.Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{})

	var listing struct {
		Entries []archive.RunInfo `json:"entries"`
	}
	if rec := get(t, h, "/runs", nil, &listing); rec.Code != http.StatusOK || len(listing.Entries) != 3 {
		t.Fatalf("/runs: code %d, %d entries, want the 3 well-formed ones: %+v", rec.Code, len(listing.Entries), listing.Entries)
	}
	for _, r := range listing.Entries {
		if rec := get(t, h, "/runs/"+r.Key, nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("/runs lists %q, which /runs/{key} answers %d", r.Key, rec.Code)
		}
	}
	var status archive.Status
	if rec := get(t, h, "/status", nil, &status); rec.Code != http.StatusOK || status.LedgerLines != 3 || status.Executed != 3 {
		t.Fatalf("/status: code %d, %d ledger lines, %d executed, want 3 and 3", rec.Code, status.LedgerLines, status.Executed)
	}
	evs, err := events.NewWatcher(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for _, e := range evs {
		if e.Kind == events.KindRunExecuted {
			executed++
		}
	}
	if executed != 3 {
		t.Fatalf("the event feed replays %d run-executed events, want 3", executed)
	}
	if rep, err := st.GC(archive.GCOptions{MaxRuns: 2}); err != nil || !rep.LedgerCompacted {
		t.Fatalf("GC: %+v err=%v", rep, err)
	}
	ledger, err := os.ReadFile(dir.Index())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ledger, []byte(`"x"`)) || bytes.Contains(ledger, []byte("passwd")) || bytes.Count(ledger, []byte("\n")) != 2 {
		t.Fatalf("the compacted ledger kept a malformed-key line:\n%s", ledger)
	}
}
