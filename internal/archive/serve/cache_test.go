package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/campaign"
	"repro/internal/fleet"
)

// A kept body is served only under the ETag it was built for: once a done
// cell lands in manifest.log, a plain GET of a cached view answers what a
// handler opened this instant answers, under the new ETag.
func TestCachedViewsFollowTheLog(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	record := func(i int) {
		t.Helper()
		if err := campaign.Record(dir, campaign.Entry{
			Index: i, Scenario: "s", Config: fmt.Sprintf("iters=%d seed=1", 1+i%3), Key: runKey(i),
			Status: "done", Cache: "hit", Q: 0.1 * float64(i+1), SimSeconds: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		record(i)
	}
	st, err := archive.Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	h, cache := newHandler(st, Options{})
	urls := []string{"/marginals/iterations", "/plots/iterations.svg"}
	before := map[string]*bytes.Buffer{}
	etags := map[string]string{}
	for _, url := range urls {
		first, second := get(t, h, url, nil, nil), get(t, h, url, nil, nil)
		if first.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: %d, and a second GET answered other bytes", url, first.Code)
		}
		before[url], etags[url] = second.Body, second.Header().Get("ETag")
	}
	if len(cache.by) != len(urls) {
		t.Fatalf("the cache keeps %d bodies after warm GETs of %v", len(cache.by), urls)
	}

	record(4)
	for _, url := range urls {
		got, want := get(t, h, url, nil, nil), get(t, NewHandler(st, Options{}), url, nil, nil)
		if got.Code != http.StatusOK || got.Header().Get("ETag") == etags[url] {
			t.Fatalf("%s after a cell landed: %d under ETag %s, the ETag before it", url, got.Code, got.Header().Get("ETag"))
		}
		if got.Header().Get("ETag") != want.Header().Get("ETag") || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s after a cell landed: the warm handler answers %s\n%s\na fresh one %s\n%s", url,
				got.Header().Get("ETag"), got.Body, want.Header().Get("ETag"), want.Body)
		}
		if bytes.Equal(got.Body.Bytes(), before[url].Bytes()) {
			t.Fatalf("%s: the new cell did not move the body, so this test proves nothing", url)
		}
	}
}

// The views that read what Stamp() does not cover are built on every
// 200: a lease claimed after the last /status shows on the next one, and
// a document renamed into runs/ with no ledger line shows on /runs, both
// while the ETag stays the same.
func TestUncachedViewsReadPastTheStamp(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	for i := 0; i < 3; i++ {
		if err := finishRun(dir, i); err != nil {
			t.Fatal(err)
		}
	}
	st, err := archive.Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{})
	var status archive.Status
	first := get(t, h, "/status", nil, &status)
	if first.Code != http.StatusOK || status.InFlight != 0 {
		t.Fatalf("/status: %d, %d in flight", first.Code, status.InFlight)
	}
	runs := get(t, h, "/runs", nil, nil)
	stamp := st.Stamp()

	tr, err := fleet.New(dir.Leases(), "w2", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ok, _, err := tr.Claim(runKey(3)); err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	key := runKey(7)
	if err := os.WriteFile(dir.Archive(key)+".tmp-w", []byte(tinyDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir.Archive(key)+".tmp-w", dir.Archive(key)); err != nil {
		t.Fatal(err)
	}
	// The rename must be seen whatever the kernel's timestamp granularity.
	later := time.Now().Add(time.Second)
	if err := os.Chtimes(dir.Runs(), later, later); err != nil {
		t.Fatal(err)
	}
	if st.Stamp() != stamp {
		t.Fatal("a lease or a rename into runs/ moved Stamp(): this test no longer tests an unchanged ETag")
	}

	rec := get(t, h, "/status", nil, &status)
	if rec.Header().Get("ETag") != first.Header().Get("ETag") || status.InFlight != 1 {
		t.Fatalf("/status after a claim: ETag %s (was %s), %d in flight, want 1",
			rec.Header().Get("ETag"), first.Header().Get("ETag"), status.InFlight)
	}
	rec = get(t, h, "/runs", nil, nil)
	want := get(t, NewHandler(st, Options{}), "/runs", nil, nil)
	if rec.Header().Get("ETag") != runs.Header().Get("ETag") || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) ||
		!strings.Contains(rec.Body.String(), key) {
		t.Fatalf("/runs after a rename into runs/: ETag %s (was %s)\n%s\na fresh handler answers\n%s",
			rec.Header().Get("ETag"), runs.Header().Get("ETag"), rec.Body, want.Body)
	}
}

// Only a built body of a path the cache was made with is kept: a
// thousand unknown axes, and the spellings of a known one other than its
// canonical name, leave it empty.
func TestUnknownAxesAreNotKept(t *testing.T) {
	st, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, cache := newHandler(st, Options{})
	for i := 0; i < 1000; i++ {
		for _, url := range []string{fmt.Sprintf("/marginals/axis%d", i), fmt.Sprintf("/plots/axis%d.svg", i)} {
			if rec := get(t, h, url, nil, nil); rec.Code != http.StatusNotFound {
				t.Fatalf("%s: %d, want 404", url, rec.Code)
			}
		}
	}
	for _, url := range []string{"/marginals/ITERATIONS", "/marginals/iters", "/plots/intensity.svg", "/plots/Dynamics.svg"} {
		if rec := get(t, h, url, nil, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d, want 200", url, rec.Code)
		}
	}
	if n := len(cache.by); n != 0 {
		t.Fatalf("the cache keeps %d bodies of paths it was not made with", n)
	}
}
