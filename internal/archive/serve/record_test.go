package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/campaign"
)

// "A cell finished" has one writer. The same entry recorded where it ran
// (campaign.Record, what the executor calls) and reported to a hub (POST
// /ingest) must leave the same manifest.log and ledger lines in both
// archives, up to the ledger's completion stamp — for every disposition,
// with and without an owner: only a done miss with an owner is ledgered.
func TestIngestRecordsLikeTheExecutor(t *testing.T) {
	nmi := 0.75
	entry := func(i int, status, cache, owner string) campaign.Entry {
		e := campaign.Entry{
			Index: i, Scenario: "2x2", Config: "dyn=1 backend=sim", Key: fmt.Sprintf("%064x", i+1),
			Backend: "sim", Status: status, Cache: cache, Owner: owner, WallSeconds: 0.5 + float64(i),
		}
		if status == "done" {
			e.Q, e.NMI, e.SimSeconds = 0.25, &nmi, 2.5
		} else {
			e.Error = "swarm <torn> & timed out"
		}
		return e
	}
	entries := []campaign.Entry{
		entry(0, "done", "hit", ""),
		entry(1, "done", "hit", "w1"),
		entry(2, "done", "miss", ""),
		entry(3, "done", "miss", "w1"),
		entry(4, "done", "dup", ""),
		entry(5, "failed", "", ""),
		entry(6, "failed", "", "w1"),
	}

	local, hub := campaign.Dir(t.TempDir()), campaign.Dir(t.TempDir())
	st, err := archive.Open(string(hub))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{Ingest: true})
	for _, e := range entries {
		if err := campaign.Record(local, e); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(string(line)+"\n")))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest of entry %d: %d\n%s", e.Index, rec.Code, rec.Body.String())
		}
	}

	stamp := regexp.MustCompile(`"completed_unix":[0-9.e+]+`)
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return stamp.ReplaceAllString(string(data), `"completed_unix":0`)
	}
	if a, b := read(local.Log()), read(hub.Log()); a != b {
		t.Fatalf("manifest.log differs:\nrecorded:\n%s\ningested:\n%s", a, b)
	}
	ledger := read(local.Index())
	if b := read(hub.Index()); ledger != b {
		t.Fatalf("ledger differs:\nrecorded:\n%s\ningested:\n%s", ledger, b)
	}
	if n := strings.Count(read(local.Log()), "\n"); n != len(entries) {
		t.Fatalf("manifest.log has %d lines, want one per entry (%d)", n, len(entries))
	}
	if strings.Count(ledger, "\n") != 1 || !strings.Contains(ledger, entries[3].Key) {
		t.Fatalf("only the owned miss is a fresh execution; ledger:\n%s", ledger)
	}
}

// The read path's bodies over a fixed archive (testdata/archive: a fleet
// run of the smoke grid plus hand-written wire, failed, duplicate and
// torn lines) are pinned to what the tree served before the archive
// layout and the cell record moved into campaign (testdata/golden,
// recorded from that commit's `campaign serve`): nothing on the wire
// moved.
func TestServedBodiesArePinned(t *testing.T) {
	st, err := archive.Open(filepath.Join("testdata", "archive"))
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st, Options{})
	for url, golden := range map[string]string{
		"/status": "status.json",
		"/runs":   "runs.json",
		"/runs/c9aa47e7d7f1dcf8e35a3bc9f41ac19bd922cbac5a967bcd962d13dbc9cd169a": "run.json",
		"/marginals/dynamics": "marginals_dynamics.json",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", golden))
		if err != nil {
			t.Fatal(err)
		}
		rec := get(t, h, url, nil, nil)
		if rec.Code != http.StatusOK || rec.Body.String() != string(want) {
			t.Errorf("%s: code %d, body differs from testdata/golden/%s:\n%s", url, rec.Code, golden, rec.Body.String())
		}
	}
	// The fixture's cells ran on two backends, so the axis the marginals
	// used to reject now has a curve.
	var m archive.Marginal
	if rec := get(t, h, "/marginals/backend", nil, &m); rec.Code != http.StatusOK || len(m.Points) != 2 {
		t.Fatalf("/marginals/backend: code %d, %+v", rec.Code, m)
	}
}
