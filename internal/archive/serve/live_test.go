package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/fleet"
)

// Plots are archive views like any other: ETag'd on the stamp,
// bodyless 304 on replay, byte-stable between completions.
func TestPlotsEndpoint(t *testing.T) {
	_, h := servedArchive(t)
	rec1 := get(t, h, "/plots/intensity.svg", nil, nil)
	if rec1.Code != http.StatusOK {
		t.Fatalf("/plots/intensity.svg: %d\n%s", rec1.Code, rec1.Body.String())
	}
	if ct := rec1.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("plot content type: %q", ct)
	}
	etag := rec1.Header().Get("ETag")
	if etag == "" {
		t.Fatal("plot has no ETag")
	}
	if !strings.Contains(rec1.Body.String(), "mean_q") {
		t.Fatalf("plot missing the Q series:\n%s", rec1.Body.String())
	}

	rec2 := get(t, h, "/plots/intensity.svg", nil, nil)
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("idle plot not byte-stable")
	}
	rec3 := get(t, h, "/plots/intensity.svg", map[string]string{"If-None-Match": etag}, nil)
	if rec3.Code != http.StatusNotModified || rec3.Body.Len() != 0 {
		t.Fatalf("plot If-None-Match: code %d, %d body bytes", rec3.Code, rec3.Body.Len())
	}
}

// The phases plot aggregates traces/, which Stamp() ignores — its ETag
// must move when a trace file lands even though the archive stamp does
// not.
func TestPhasesPlotETagTracksTraces(t *testing.T) {
	dir, h := servedArchive(t)
	rec1 := get(t, h, "/plots/phases.svg", nil, nil)
	if rec1.Code != http.StatusOK {
		t.Fatalf("/plots/phases.svg: %d", rec1.Code)
	}
	etag := rec1.Header().Get("ETag")

	tracesDir := campaign.Dir(dir).Traces()
	if err := os.MkdirAll(tracesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tracesDir, strings.Repeat("ab", 32)+".jsonl"),
		[]byte(`{"name":"aggregate","seconds":1.5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec2 := get(t, h, "/plots/phases.svg", map[string]string{"If-None-Match": etag}, nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("phases ETag did not move on trace write: %d", rec2.Code)
	}
	if !strings.Contains(rec2.Body.String(), "aggregate") {
		t.Fatalf("phase bars missing the phase:\n%s", rec2.Body.String())
	}
}

func TestDashboardPage(t *testing.T) {
	_, h := servedArchive(t)
	rec := get(t, h, "/dashboard", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/dashboard: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"EventSource", "plots/phases.svg", "cell-finished", "text/html"} {
		if !strings.Contains(body, want) && !strings.Contains(rec.Header().Get("Content-Type"), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// sseClient reads one /events stream over a real connection until n
// events arrive (or the deadline), returning them in order.
func sseClient(t *testing.T, base string, lastID string, n int) []events.Event {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events content type: %q", ct)
	}
	var got []events.Event
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() && len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("sse timeout: %d/%d events", len(got), n)
		}
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e events.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			got = append(got, e)
		}
	}
	return got
}

// The SSE contract over a real server: a subscriber attaching to a
// finished campaign replays its full history exactly once, and a
// reconnect with Last-Event-ID resumes mid-stream without duplicates.
func TestEventsSSE(t *testing.T) {
	dir, _ := servedArchive(t)
	st, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { sseHeartbeat = d }(sseHeartbeat)
	sseHeartbeat = 50 * time.Millisecond
	h := NewHandler(st, Options{EventInterval: 10 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The expected history is whatever one direct Watcher poll replays
	// (cells, ledger lines, the finalize marker).
	history, err := events.NewWatcher(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	total := len(history)
	if total < 5 { // 4 cells + finalized at minimum
		t.Fatalf("test archive too small: %d events", total)
	}

	got := sseClient(t, srv.URL, "", total)
	if len(got) != total {
		t.Fatalf("got %d events, want %d", len(got), total)
	}
	kinds := map[string]int{}
	cells := map[string]int{}
	for i, e := range got {
		if e.ID != int64(i+1) {
			t.Fatalf("IDs not sequential: %+v", got)
		}
		kinds[e.Kind]++
		if e.Kind == events.KindCellFinished {
			cells[e.Key]++
			if cells[e.Key] > 1 {
				t.Fatalf("cell %s delivered twice", e.Key)
			}
		}
	}
	if kinds[events.KindCellFinished] != 4 || kinds[events.KindFinalized] != 1 {
		t.Fatalf("kind histogram wrong: %v", kinds)
	}

	// Reconnect from the middle: replay only what follows.
	rest := sseClient(t, srv.URL, "2", total-2)
	if len(rest) != total-2 || rest[0].ID != 3 {
		t.Fatalf("Last-Event-ID replay wrong: %+v", rest)
	}
}

// A stream at its subscriber cap answers /events with 503 and
// Retry-After, before any of the event-stream preamble.
func TestEventsRefusedWhenFull(t *testing.T) {
	st, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stream := events.NewStream(events.NewWatcher(st), time.Millisecond)
	defer stream.Close()
	for n := 0; ; n++ {
		if _, err := stream.Subscribe(0); err != nil {
			break
		}
		if n == 1024 { // each subscriber holds ≈ 190 KB
			t.Fatal("the stream took 1024 subscribers and was never full")
		}
	}
	rec := httptest.NewRecorder()
	serveSSE(rec, httptest.NewRequest("GET", "/events", nil), stream)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("/events on a full stream: %d, Retry-After %q\n%s", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "retry:") {
		t.Fatalf("a refused subscriber got the event-stream preamble:\n%s", rec.Body.String())
	}
}

// POST /ingest is the cross-machine write path: posted manifest lines
// land in the hub's manifest.log (canonicalised), fresh executions are
// mirrored into the ledger for owner attribution, and junk is either
// tolerated (mixed in) or rejected (nothing valid).
func TestIngestEndpoint(t *testing.T) {
	hub := t.TempDir()
	st, err := archive.Open(hub)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{Ingest: true})

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/ingest", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	key1, key2 := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
	nmi := 0.75
	line1, _ := json.Marshal(campaign.Entry{
		Index: 0, Scenario: "s", Config: "dyn=1", Key: key1,
		Status: "done", Cache: "miss", Owner: "w1", Q: 0.5, NMI: &nmi, WallSeconds: 1.5,
	})
	line2, _ := json.Marshal(campaign.Entry{
		Index: 1, Scenario: "s", Config: "dyn=2", Key: key2,
		Status: "done", Cache: "hit", Owner: "w1", Q: 0.4,
	})
	body := string(line1) + "\n" + "garbage line\n" + string(line2) + "\n" + `{"key":"torn`
	rec := post(body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/ingest: %d\n%s", rec.Code, rec.Body.String())
	}
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Ingested != 2 {
		t.Fatalf("ingest response wrong: %s (err %v)", rec.Body.String(), err)
	}

	// The hub archive now answers queries as if the cells ran here: the
	// miss is ledger-attributed to its owner, the hit is manifest-only.
	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != 1 {
		t.Fatalf("hub executed count: %+v", status)
	}
	if len(status.Owners) != 1 || status.Owners[0].Owner != "w1" || status.Owners[0].Executed != 1 {
		t.Fatalf("hub owner attribution: %+v", status.Owners)
	}
	m, err := st.Marginals("dynamics")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells != 2 || len(m.Points) != 2 {
		t.Fatalf("hub marginals: %+v", m)
	}

	// Replaying the same lines appends again but dedup keeps queries
	// exactly-once per (index, key).
	if rec := post(body); rec.Code != http.StatusOK {
		t.Fatalf("replay: %d", rec.Code)
	}
	if m, _ = st.Marginals("dynamics"); m.Cells != 2 {
		t.Fatalf("hub double-counted after replay: %+v", m)
	}

	// All-junk bodies are a client error; empty bodies are a no-op.
	if rec := post("not json\nnope\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("junk body: want 400, got %d", rec.Code)
	}
	if rec := post(""); rec.Code != http.StatusOK {
		t.Fatalf("empty body: want 200, got %d", rec.Code)
	}

	// GET on /ingest is not a thing, and ingest is absent without opt-in
	// (TestStatusCodeMapping covers the opt-out handler).
	reqGet := httptest.NewRequest("GET", "/ingest", nil)
	recGet := httptest.NewRecorder()
	h.ServeHTTP(recGet, reqGet)
	if recGet.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: want 405, got %d", recGet.Code)
	}
}

// TestIngestBodyCap: a body of exactly ingestMaxBody bytes ingests every
// line, one line more is refused with 413 — not cut at the cap, answered
// 200 and short of the lines behind it.
func TestIngestBodyCap(t *testing.T) {
	st, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{Ingest: true})
	line := func(i int) string {
		data, _ := json.Marshal(campaign.Entry{
			Index: i, Scenario: strings.Repeat("s", 60000), Key: fmt.Sprintf("%064x", i+1),
			Status: "done", Cache: "hit",
		})
		return string(data) + "\n"
	}
	const lines = 16
	var full strings.Builder
	for i := 0; i < lines; i++ {
		full.WriteString(line(i))
	}
	if full.Len() > ingestMaxBody {
		t.Fatalf("fixture is %d bytes, over the %d cap", full.Len(), ingestMaxBody)
	}
	full.WriteString(strings.Repeat("\n", ingestMaxBody-full.Len())) // blank lines are skipped
	for _, tc := range []struct {
		body string
		code int
	}{
		{full.String(), http.StatusOK},
		{full.String() + line(lines), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("%d-byte body: status %d, want %d\n%s", len(tc.body), rec.Code, tc.code, rec.Body.String())
		}
		if want := fmt.Sprintf("\"ingested\": %d\n", lines); tc.code == http.StatusOK && !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("body at the cap: reply %s, want %d lines ingested", rec.Body.String(), lines)
		}
	}
}

// A posted line can outgrow the read path's line cap when it is
// re-marshalled: 300 KB of '<' become 1.8 MB of \u003c. Such a line used
// to be appended and then failed every view that reads manifest.log
// until someone edited the file. It is refused, and the views carry on —
// on the one handler that had the log folded before the post and keeps
// answering four clients while more posts land.
func TestIngestCannotWedgeViews(t *testing.T) {
	hub := t.TempDir()
	st, err := archive.Open(hub)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{Ingest: true})
	views := []string{"/marginals/seed", "/plots/seed.svg", "/status", "/runs"}
	for _, url := range views {
		if rec := get(t, h, url, nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s over an empty hub: %d\n%s", url, rec.Code, rec.Body.String())
		}
	}
	post := func(i int) *httptest.ResponseRecorder {
		good, _ := json.Marshal(campaign.Entry{
			Index: i, Config: "seed=1", Key: fmt.Sprintf("%064x", i+1), Status: "done", Cache: "miss", Owner: "remote", Q: 0.5,
		})
		wedge := `{"index":1,"key":"` + strings.Repeat("cd", 32) + `","status":"failed","error":"` +
			strings.Repeat("<", 300<<10) + `"}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(string(good)+"\n"+wedge+"\n")))
		return rec
	}
	if rec := post(0); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ingested": 1`) {
		t.Fatalf("/ingest: %d %s, want the good line alone accepted", rec.Code, rec.Body.String())
	}
	log, err := os.ReadFile(filepath.Join(hub, "manifest.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) > fleet.MaxLine {
		t.Fatalf("manifest.log is %d bytes: the oversized line was appended", len(log))
	}
	for _, url := range views {
		if rec := get(t, h, url, nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s after the oversized post: %d\n%s", url, rec.Code, rec.Body.String())
		}
	}

	const posts = 12
	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, url := range views {
					if rec := get(t, h, url, nil, nil); rec.Code != http.StatusOK {
						t.Errorf("%s while posts land: %d\n%s", url, rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}
	for i := 1; i < posts; i++ {
		if rec := post(i); rec.Code != http.StatusOK {
			t.Errorf("/ingest %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(done)
	wg.Wait()
	var m archive.Marginal
	if rec := get(t, h, "/marginals/seed", nil, &m); rec.Code != http.StatusOK || m.Cells != posts {
		t.Fatalf("/marginals/seed after %d posts: code %d, %d cells", posts, rec.Code, m.Cells)
	}
	sameBodies(t, "after the posts", h, st)
}

// The index advertises ingest exactly when it is mounted.
func TestIngestAdvertised(t *testing.T) {
	hub := t.TempDir()
	st, err := archive.Open(hub)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{Ingest: true})
	var idx struct {
		Endpoints []string `json:"endpoints"`
	}
	if rec := get(t, h, "/", nil, &idx); rec.Code != http.StatusOK {
		t.Fatalf("/: %d", rec.Code)
	}
	found := false
	for _, e := range idx.Endpoints {
		if e == "POST /ingest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingest-enabled index does not advertise it: %v", idx.Endpoints)
	}
}
