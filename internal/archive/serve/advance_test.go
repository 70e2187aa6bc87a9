package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/fleet"
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
// 10,000 allocations), /status from the fold, the tally and the runs/
// listing it holds (it used to decode the ledger and materialise
// manifest.json: about 20,000, then list runs/: about 2,100), and /runs
// from the body it encoded at the Snapshot's generation (listing and
// encoding it: about 5,100). A 304 costs the stamp, and a warm marginal
// or plot the stamp and the body kept for its ETag (it used to advance,
// aggregate and render: 61 and 90). Each budget is the measured count
// plus about a quarter.
func TestWarmViewAllocBudget(t *testing.T) {
	skipUnderRace(t)
	st := archiveOf(t, 1000)
	h := NewHandler(st, Options{})
	for _, guard := range []struct {
		url         string
		conditional bool // replay the 200's ETag and expect a 304
		budget      float64
	}{
		{"/runs/" + runKey(500), false, 80},
		{"/status", false, 82},
		{"/runs", false, 55},
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

// discard is a ResponseWriter that keeps the status and drops the body,
// so that what a measurement counts is the handler's own bytes: a
// recorder's body buffer would add a copy of every body it is sent.
type discard struct {
	header http.Header
	code   int
}

func (d *discard) Header() http.Header  { return d.header }
func (d *discard) WriteHeader(code int) { d.code = code }
func (d *discard) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	return len(p), nil
}

// Byte guards on the handler's own allocations: over a 1000-run archive
// a warm /runs 200 serves the body it encoded at the Snapshot's
// generation, where it used to build the 1000-entry listing (110 KB) and
// compare it with the last one, and a warm /status reads the leases, the
// manifest heads it holds and the campaign.csv stat, where it used to
// fold the whole ledger. The bounds are the measured bytes plus about a
// quarter.
func TestWarmViewByteBudget(t *testing.T) {
	skipUnderRace(t)
	st := archiveOf(t, 1000)
	h := NewHandler(st, Options{})
	for _, guard := range []struct {
		url    string
		budget float64 // bytes per request
	}{
		{"/runs", 3900},
		{"/status", 6800},
	} {
		req := httptest.NewRequest("GET", guard.url, nil)
		w := &discard{header: make(http.Header)}
		serve := func() {
			clear(w.header)
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: %d", guard.url, w.code)
			}
		}
		serve() // the first 200 folds the archive
		perRun := bytesPerRun(20, serve)
		t.Logf("warm GET %s: %.0f bytes", guard.url, perRun)
		if perRun > guard.budget {
			t.Errorf("a warm GET %s allocates %.0f bytes, budget %.0f: it rebuilt what the archive holds", guard.url, perRun, guard.budget)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}

// A warm handler's /runs and /status follow every step that moves what
// they show, each of which moves the Snapshot's generation or is read
// fresh: after each, both bodies are, byte for byte, what a handler
// opened this instant serves, and the step moved at least one of them.
func TestWarmViewsFollowEveryFold(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	for i := 0; i < 6; i++ {
		if err := finishRun(dir, i); err != nil {
			t.Fatal(err)
		}
	}
	st, err := archive.Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{})
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"a ledger append", func() error { return finishRun(dir, 6) }},
		{"a duplicate ledger line", func() error {
			return fleet.AppendIndex(dir.Index(), fleet.IndexEntry{Key: runKey(2), Run: 2, Owner: "w2", Cache: "miss", WallSeconds: 7})
		}},
		{"a document renamed into runs/ with no ledger line", func() error {
			key := runKey(9)
			if err := os.WriteFile(dir.Archive(key)+".tmp-w", []byte(tinyDoc), 0o644); err != nil {
				return err
			}
			if err := os.Rename(dir.Archive(key)+".tmp-w", dir.Archive(key)); err != nil {
				return err
			}
			// The rename must be seen whatever the kernel's timestamp granularity.
			later := time.Now().Add(time.Second)
			return os.Chtimes(dir.Runs(), later, later)
		}},
		{"a ledger compaction", func() error {
			rep, err := st.GC(archive.GCOptions{MaxRuns: 4})
			if err == nil && !rep.LedgerCompacted {
				err = fmt.Errorf("GC did not compact the ledger: %+v", rep)
			}
			return err
		}},
	} {
		runs, status := get(t, h, "/runs", nil, nil).Body.String(), get(t, h, "/status", nil, nil).Body.String()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sameBodies(t, step.name, h, st)
		if get(t, h, "/runs", nil, nil).Body.String() == runs && get(t, h, "/status", nil, nil).Body.String() == status {
			t.Fatalf("%s moved neither /runs nor /status, so it tests nothing", step.name)
		}
	}
}

// archiveOf is an archive of n runs, every run finished as a worker
// finishes one.
func archiveOf(tb testing.TB, n int) *archive.Store {
	tb.Helper()
	dir := campaign.Dir(tb.TempDir())
	for i := 0; i < n; i++ {
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
// warm handler over a 1000- and a 10,000-run archive nothing is writing
// to, served through discard so that it counts the handler, not a copy
// of the body.
func BenchmarkWarmViews(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st := archiveOf(b, n)
			for _, view := range []struct{ name, url string }{
				{"/runs", "/runs"},
				{"/status", "/status"},
				{"/runs/{key}", "/runs/" + runKey(n/2)},
			} {
				b.Run(view.name, func(b *testing.B) {
					h := NewHandler(st, Options{})
					req := httptest.NewRequest("GET", view.url, nil)
					w := &discard{header: make(http.Header)}
					serve := func() {
						clear(w.header)
						w.code = 0
						h.ServeHTTP(w, req)
						if w.code != http.StatusOK {
							b.Fatalf("%s: %d", view.url, w.code)
						}
					}
					serve() // the first 200 folds the archive
					b.ReportAllocs()
					for b.Loop() {
						serve()
					}
				})
			}
		})
	}
}
