package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/persist"
)

// A manifest as the executor publishes it, entries and all, is read by
// the fast path: if it declined it, every head would be reflected over
// whole again and nothing would say so.
func TestReadHeadFieldsReadsWhatPublishWrites(t *testing.T) {
	nmi := 0.5
	key := syntheticKey(1)
	for _, m := range []campaign.Manifest{
		{Version: 1, Campaign: "grid", Jobs: 2, Runs: 3, Hits: 1, Misses: 1, Dups: 1, WallSeconds: 1.25,
			Entries: []campaign.Entry{
				{Index: 0, Scenario: "GT", Config: "seed=1", Key: key, Status: "done", Cache: "miss", Owner: "w", Q: 0.4, NMI: &nmi},
				{Index: 1, Scenario: "<GT>", Key: key, Status: "failed", Error: "a \"quoted\" error"},
			}},
		{Version: 1, Campaign: "fleet", Fleet: true, Runs: 1, Failures: 1, Entries: nil},
		{Version: 1, Campaign: "mine", Owner: "w2", Runs: 1, Misses: 1, WallSeconds: 3e-7, Entries: []campaign.Entry{}},
	} {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := persist.SaveJSON(path, &m); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := readHeadFields(data)
		want := head{Campaign: m.Campaign, ManifestSummary: ManifestSummary{
			Runs: m.Runs, Hits: m.Hits, Misses: m.Misses, Dups: m.Dups, Failures: m.Failures, WallSeconds: m.WallSeconds}}
		if !ok || h != want {
			t.Errorf("fast path read %+v, %v from\n%s", h, ok, data)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := readHead(path, fi); !got.ok || got.Campaign != want.Campaign || got.ManifestSummary != want.ManifestSummary {
			t.Errorf("readHead = %+v", got)
		}
	}
}

// FuzzReadHead holds the manifest head's fast path to json.Unmarshal:
// whatever document it reads, json.Unmarshal decodes to a DeepEqual
// head, so it declines every document json.Unmarshal rejects, invalid
// JSON in what it skips included.
func FuzzReadHead(f *testing.F) {
	for _, s := range []string{
		manifestDoc("grid", 3, ""),
		manifestDoc("grid", 3, logLine(0, syntheticKey(0), "done", 0.5)),
		"{\n  \"version\": 1,\n  \"campaign\": \"g\",\n  \"jobs\": 1,\n  \"fleet\": true,\n  \"runs\": 2,\n  \"hits\": 0,\n  \"misses\": 2,\n  \"dups\": 0,\n  \"failures\": 0,\n  \"wall_seconds\": 0.5,\n  \"entries\": [\n    {\n      \"index\": 0,\n      \"key\": \"k\\\"]}\"\n    }\n  ]\n}\n",
		`{"campaign":"g","entries":[],"runs":4}`,
		`{"campaign":"g","Runs":4}`,
		`{"campaign":"g","runs":4,"runs":5}`,
		`{"campaign":"g","runs":1.5}`,
		`{"version":"x","jobs":[1,2],"fleet":null,"owner":{"a":[]},"runs":1e2}`,
		`{"runs":99999999999999999999}`,
		`{"version":[1,],"runs":1}`,
		`{"version":{"a":1,},"runs":1}`,
		`{"version":"\x","runs":1}`,
		`{"version":"\u00zz","runs":1}`,
		"{\"version\":\"tab\there\",\"runs\":1}",
		`{"version":tru,"runs":1}`,
		`{"version":-,"runs":1}`,
		`{"version":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]],"runs":1}`,
		`{"wall_seconds":1e400}`,
		`{"campaign":null}`,
		`{}`,
		`[]`,
		`"manifest"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want head
		wantErr := json.Unmarshal(data, &want)
		h, ok := readHeadFields(data)
		if ok && (wantErr != nil || !reflect.DeepEqual(h, want)) {
			t.Fatalf("fast path read %+v from %q; json.Unmarshal: %+v, %v", h, data, want, wantErr)
		}
	})
}

// BenchmarkColdAdvance is the cost of opening an archive: the first
// Advance of a fresh Snapshot over 1000 runs written as the executor
// writes them (ledger, manifest.log, manifest.json and runs/).
func BenchmarkColdAdvance(b *testing.B) {
	dir := campaign.Dir(b.TempDir())
	man := campaign.Manifest{Version: 1, Campaign: "grid1k", Jobs: 2, Runs: 1000, Misses: 1000, WallSeconds: 12.5}
	for i := 0; i < 1000; i++ {
		nmi := float64(i%7) / 7
		e := campaign.Entry{
			Index: i, Scenario: []string{"2x2", "GT"}[i%2], Key: syntheticKey(i), Backend: "sim",
			Config: fmt.Sprintf("dyn=1 iters=%d window=0 rotate=false seed=%d scale=0.002 top=0 backend=sim workers=1", 1+i%2, 1+i/4),
			Status: "done", Cache: "miss", Owner: "host.pid1234", WallSeconds: 0.0123456789 * float64(i),
			Q: 0.123456789012345 * float64(i%9), NMI: &nmi, SimSeconds: 2.2533217060893174 * float64(i%5),
		}
		man.Entries = append(man.Entries, e)
		if err := campaign.Record(dir, e); err != nil {
			b.Fatal(err)
		}
		publish(b, dir.Archive(e.Key), minimalDoc)
	}
	if err := persist.SaveJSON(dir.Manifest(), &man); err != nil {
		b.Fatal(err)
	}
	st, err := Open(string(dir))
	if err != nil {
		b.Fatal(err)
	}
	if lines, err := fleet.ReadIndex(dir.Index()); err != nil || len(lines) != 1000 {
		b.Fatalf("ledger has %d lines, err=%v", len(lines), err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := st.Snapshot().Advance(); err != nil {
			b.Fatal(err)
		}
	}
}
