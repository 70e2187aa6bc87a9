package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/campaign"
)

const tinyDoc = `{"version": 1, "n": 2, "labels": [0, 1], "q": 0.5, "sim_time_seconds": 1}`

func runKey(i int) string { return fmt.Sprintf("%064x", i+1) }

// finishRun does what a worker does when a cell completes: publish the
// document by rename, then the ledger line, then the manifest.log line.
func finishRun(dir campaign.Dir, i int) error {
	key := runKey(i)
	if err := os.MkdirAll(dir.Runs(), 0o755); err != nil {
		return err
	}
	tmp := dir.Archive(key) + ".tmp-w"
	if err := os.WriteFile(tmp, []byte(tinyDoc), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir.Archive(key)); err != nil {
		return err
	}
	return campaign.Record(dir, campaign.Entry{
		Index: i, Scenario: "s", Config: fmt.Sprintf("seed=%d backend=sim", i%5), Key: key,
		Backend: "sim", Status: "done", Cache: "miss", Owner: "w", WallSeconds: 0.5, Q: 0.5, SimSeconds: 2,
	})
}

// sameBodies holds a long-lived handler to the differential oracle: every
// view it serves must be, byte for byte, what a handler opened this
// instant on the same directory serves.
func sameBodies(t *testing.T, step string, h http.Handler, st *archive.Store, urls ...string) {
	t.Helper()
	fresh := NewHandler(st, Options{})
	for _, url := range append(urls, "/runs", "/status", "/marginals/seed", "/plots/seed.svg") {
		got, want := get(t, h, url, nil, nil), get(t, fresh, url, nil, nil)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: %s: the long-lived handler answers %d\n%s\na fresh one %d\n%s",
				step, url, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}

// A handler opened on an empty directory before a fleet starts serves
// that fleet's progress with no restart, to eight clients at once while
// the writer is appending (under -race: no view returns or retains
// anything another request can mutate), and a GC compaction under it —
// the ledger replaced by rename — is followed by what a fresh read shows.
func TestHandlerFollowsLiveFleetAndCompaction(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	st, err := archive.Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{})
	sameBodies(t, "before the fleet", h, st)
	if rec := get(t, h, "/runs", nil, nil); rec.Body.String() != "{\n  \"entries\": null,\n  \"runs\": 0\n}\n" {
		t.Fatalf("/runs over an empty directory moved:\n%s", rec.Body.String())
	}

	const total = 120
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			if err := finishRun(dir, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var listing struct {
					Entries []archive.RunInfo `json:"entries"`
				}
				if rec := get(t, h, "/runs", nil, &listing); rec.Code != http.StatusOK || len(listing.Entries) > total {
					t.Errorf("/runs during writes: code %d, %d entries", rec.Code, len(listing.Entries))
					return
				}
				urls := []string{"/status", "/marginals/seed", "/plots/seed.svg"}
				if n := len(listing.Entries); n > 0 {
					urls = append(urls, "/runs/"+listing.Entries[n-1].Key)
				}
				for _, url := range urls {
					if rec := get(t, h, url, nil, nil); rec.Code != http.StatusOK {
						t.Errorf("%s during writes: %d\n%s", url, rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var status archive.Status
	if rec := get(t, h, "/status", nil, &status); rec.Code != http.StatusOK || status.Executed != total || status.Archived != total {
		t.Fatalf("settled /status: code %d, %+v", rec.Code, status)
	}
	sameBodies(t, "settled", h, st, "/runs/"+runKey(0), "/runs/"+runKey(total-1))

	// More runs land unseen by the handler, then GC evicts a few: the
	// ledger it remembered an offset into is gone, and the one in its
	// place is longer than that offset.
	for i := total; i < 3*total; i++ {
		if err := finishRun(dir, i); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.GC(archive.GCOptions{MaxRuns: 3*total - 5})
	if err != nil || !rep.LedgerCompacted || rep.Removed != 5 {
		t.Fatalf("GC: %+v err=%v", rep, err)
	}
	sameBodies(t, "after a compaction", h, st, "/runs/"+rep.Evicted[0], "/runs/"+runKey(3*total-1))
	if rec := get(t, h, "/status", nil, &status); rec.Code != http.StatusOK || status.Executed != 3*total-5 {
		t.Fatalf("/status after a compaction: code %d, %+v", rec.Code, status)
	}
}

// Cost guards that fail when someone re-reads the archive on a 200: over
// a 1000-run archive a warm handler answers /runs/{key} from one map
// lookup and one document (it used to decode the whole ledger: about
// 10,000 allocations), /status from the fold and runs/ listing it holds
// (it used to decode the ledger and materialise manifest.json: about
// 20,000, then list runs/: about 2,100), and /runs from the listing and
// the body it last encoded (listing and encoding it: about 5,100). A 304
// costs the stamp, and a warm marginal or plot the stamp and the body
// kept for its ETag (it used to advance, aggregate and render: 61 and
// 90). Each budget is the measured count plus about a quarter.
func TestWarmViewAllocBudget(t *testing.T) {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
	st := thousandRuns(t)
	h := NewHandler(st, Options{})
	for _, guard := range []struct {
		url         string
		conditional bool // replay the 200's ETag and expect a 304
		budget      float64
	}{
		{"/runs/" + runKey(500), false, 80},
		{"/status", false, 82},
		{"/runs", false, 56},
		{"/runs", true, 28},
		{"/marginals/iterations", false, 33},
		{"/plots/iterations.svg", false, 33},
	} {
		req := httptest.NewRequest("GET", guard.url, nil)
		want := http.StatusOK
		if guard.conditional {
			req.Header.Set("If-None-Match", get(t, h, guard.url, nil, nil).Header().Get("ETag"))
			want = http.StatusNotModified
		}
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != want {
				t.Fatalf("%s: %d, want %d", guard.url, rec.Code, want)
			}
		}
		serve() // the first 200 folds the archive
		allocs := testing.AllocsPerRun(5, serve)
		t.Logf("warm GET %s (%d): %v allocations", guard.url, want, allocs)
		if allocs > guard.budget {
			t.Errorf("a warm GET %s (%d) allocates %v times, budget %v: it re-read the archive", guard.url, want, allocs, guard.budget)
		}
	}
	// The control: the same requests against a cold handler do read it.
	cold := testing.AllocsPerRun(1, func() { get(t, NewHandler(st, Options{}), "/runs/"+runKey(500), nil, nil) })
	if cold < 10000 {
		t.Errorf("the control is broken: a cold GET /runs/{key} over 1000 runs allocates %v times", cold)
	}
}

// thousandRuns is a 1000-run archive, every run finished as a worker
// finishes one.
func thousandRuns(tb testing.TB) *archive.Store {
	tb.Helper()
	dir := campaign.Dir(tb.TempDir())
	for i := 0; i < 1000; i++ {
		if err := finishRun(dir, i); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := archive.Open(string(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkWarmViews is the read path's layer number: one 200 of a
// warm handler over a 1000-run archive nothing is writing to.
func BenchmarkWarmViews(b *testing.B) {
	st := thousandRuns(b)
	for _, view := range []struct{ name, url string }{
		{"/runs", "/runs"},
		{"/status", "/status"},
		{"/runs/{key}", "/runs/" + runKey(500)},
	} {
		b.Run(view.name, func(b *testing.B) {
			h := NewHandler(st, Options{})
			req := httptest.NewRequest("GET", view.url, nil)
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d", view.url, rec.Code)
				}
			}
			serve() // the first 200 folds the archive
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
