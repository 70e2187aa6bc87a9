package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// appendBytes appends raw bytes the way a foreign or killed writer would:
// no JSON, no terminator discipline.
func appendBytes(t testing.TB, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// publish writes a file whole and renames it into place, as every
// document of an archive is published: path names a new inode afterwards.
func publish(t testing.TB, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp-test"
	if err := os.WriteFile(tmp, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// sameViews holds a long-lived Snapshot to the differential oracle: after
// an Advance, every view of it must equal the one a Store computes from a
// fresh read of the directory.
func sameViews(t testing.TB, step string, sn *Snapshot, st *Store, keys []string) {
	t.Helper()
	if err := sn.Advance(); err != nil {
		t.Fatalf("%s: Advance: %v", step, err)
	}
	same := func(view string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: %s: advanced error %v, fresh error %v", step, view, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s differs\nadvanced: %+v\nfresh:    %+v", step, view, got, want)
		}
	}
	gotRuns, gotErr := sn.Runs()
	wantRuns, wantErr := st.Runs()
	same("Runs", gotRuns, wantRuns, gotErr, wantErr)
	gotStatus, gotErr := sn.Status()
	wantStatus, wantErr := st.Status()
	same("Status", gotStatus, wantStatus, gotErr, wantErr)
	for _, axis := range []string{"seed", "scenario", "no-such-axis"} {
		got, gotErr := sn.Marginals(axis)
		want, wantErr := st.Marginals(axis)
		same("Marginals "+axis, got, want, gotErr, wantErr)
	}
	for _, key := range keys {
		got, gotErr := sn.Get(key)
		want, wantErr := st.Get(key)
		same("Get "+key, got, want, gotErr, wantErr)
	}
}

func ledgerLine(key string, run int, owner string) string {
	return fmt.Sprintf(`{"key":"%s","run":%d,"scenario":"s","backend":"sim","owner":"%s","cache":"miss","wall_seconds":0.5,"completed_unix":%d}`+"\n",
		key, run, owner, 1790000000+run)
}

func logLine(index int, key, status string, q float64) string {
	return fmt.Sprintf(`{"index":%d,"scenario":"s%d","config":"seed=%d backend=sim","key":"%s","status":"%s","cache":"miss","owner":"w","q":%g,"nmi":0.5,"sim_seconds":2}`+"\n",
		index, index%2, index%3, key, status, q)
}

func manifestDoc(campaignName string, runs int, entries string) string {
	return fmt.Sprintf(`{"version":1,"campaign":"%s","jobs":1,"runs":%d,"hits":1,"misses":%d,"dups":0,"failures":0,"wall_seconds":1.5,"entries":[%s]}`,
		campaignName, runs, runs-1, entries)
}

// A scripted writer does to a directory everything a fleet, a crash, a
// foreign process and an operator can, one step at a time; a Snapshot
// advanced after every step must show what a fresh read shows.
func TestAdvancedSnapshotMatchesFresh(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	st, err := Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	k := syntheticKey
	// Ledgered and archived, ledgered only, archived only, neither, and
	// not a key at all; then the runs/-only steps' documents.
	keys := []string{k(0), k(1), k(7), k(9), "x", k(10), k(11)}
	garbage := strings.Repeat("<", fleet.MaxLine+1) + "\n"
	torn := ledgerLine(k(3), 3, "w2")
	cell := strings.TrimSuffix(logLine(0, k(0), "done", 0.125), "\n")
	stray := dir.Archive(k(11)) + ".tmp-crashed"

	// Steps that touch only runs/ set its mtime themselves, so the script
	// does not depend on the kernel's timestamp granularity: nextTick is
	// a change the clock has moved past since the last listing, sameTick
	// one inside the tick that listing saw.
	var listed time.Time // runs/'s mtime before the step
	runsMtime := func(at time.Time) {
		if err := os.Chtimes(dir.Runs(), at, at); err != nil {
			t.Fatal(err)
		}
	}
	nextTick := func() { runsMtime(listed.Add(time.Second)) }
	sameTick := func() {
		runsMtime(listed)
		if fi, err := os.Stat(dir.Runs()); err != nil || !sameFacts(sn.runsAt, fi) {
			t.Fatalf("runs/ does not have the facts of the last listing (err=%v): this step no longer tests a same-tick rename", err)
		}
	}

	for _, step := range []struct {
		name string
		do   func()
	}{
		{"an empty directory", func() {}},
		{"the first run", func() {
			publish(t, dir.Archive(k(0)), minimalDoc)
			appendBytes(t, dir.Index(), ledgerLine(k(0), 0, "w1"))
			appendBytes(t, dir.Log(), logLine(0, k(0), "done", 0.25))
		}},
		{"nothing", func() {}},
		{"a run whose document was collected, and a document nobody ledgered", func() {
			appendBytes(t, dir.Index(), ledgerLine(k(1), 1, "w2"))
			appendBytes(t, dir.Log(), logLine(1, k(1), "done", 0.5))
			publish(t, dir.Archive(k(7)), minimalDoc)
		}},
		{"a post-crash duplicate by another owner", func() {
			appendBytes(t, dir.Index(), ledgerLine(k(0), 0, "w2"))
		}},
		{"a torn tail in both files", func() {
			appendBytes(t, dir.Index(), torn[:40])
			appendBytes(t, dir.Log(), `{"index":2,"key":"`)
		}},
		{"the torn tails completed", func() {
			appendBytes(t, dir.Index(), torn[40:])
			appendBytes(t, dir.Log(), k(2)+`","status":"done","config":"seed=2","q":1}`+"\n")
		}},
		{"blank lines, and a line whose key is not a content address", func() {
			appendBytes(t, dir.Index(), "\n  \n"+`{"key":"x","run":5,"owner":"w1"}`+"\n")
			appendBytes(t, dir.Log(), "\n")
		}},
		{"a line over the cap between two good ones", func() {
			appendBytes(t, dir.Index(), garbage+ledgerLine(k(4), 4, "w1"))
			appendBytes(t, dir.Log(), garbage+logLine(4, k(4), "done", 0.75))
		}},
		{"a failed cell, then the same cell failing after it had finished", func() {
			appendBytes(t, dir.Log(), logLine(5, k(5), "failed", 0)+logLine(1, k(1), "failed", 0))
		}},
		{"a warm re-invocation re-appending a cell", func() {
			appendBytes(t, dir.Log(), logLine(0, k(0), "done", 0.125))
		}},
		{"a lease", func() {
			now := float64(time.Now().Unix())
			publish(t, filepath.Join(dir.Leases(), k(6)+".json"), fmt.Sprintf(
				`{"key":"%s","owner":"w3","epoch":1,"acquired_unix":%g,"heartbeat_unix":%g,"ttl_seconds":3600}`, k(6), now, now))
		}},
		{"an owner manifest published by rename", func() {
			publish(t, dir.OwnerManifest("w1"), manifestDoc("grid", 3, cell))
		}},
		{"that manifest replaced, a second owner's unreadable", func() {
			publish(t, dir.OwnerManifest("w1"), manifestDoc("grid", 5, cell))
			publish(t, dir.OwnerManifest("w9"), `{"version":1,"campaign":`)
		}},
		{"the cumulative manifest", func() {
			publish(t, dir.Manifest(), manifestDoc("grid", 6, cell))
			publish(t, dir.CSV(), "scenario,q\n")
		}},
		{"manifest.log deleted: manifest.json stands in", func() {
			if err := os.Remove(dir.Log()); err != nil {
				t.Fatal(err)
			}
		}},
		{"the stand-in replaced", func() {
			publish(t, dir.Manifest(), manifestDoc("grid2", 7, cell+","+strings.TrimSuffix(logLine(1, k(1), "done", 0.5), "\n")))
		}},
		{"a new manifest.log shorter than the old one", func() {
			appendBytes(t, dir.Log(), logLine(8, k(8), "done", 0.875))
		}},
		{"an owner manifest withdrawn", func() {
			if err := os.Remove(dir.OwnerManifest("w1")); err != nil {
				t.Fatal(err)
			}
		}},
		{"a document nobody ledgered, published alone", func() {
			publish(t, dir.Archive(k(10)), minimalDoc)
			nextTick()
		}},
		{"a ledgered document deleted by hand", func() {
			if err := os.Remove(dir.Archive(k(0))); err != nil {
				t.Fatal(err)
			}
			nextTick()
		}},
		{"a stray temp file", func() {
			if err := os.WriteFile(stray, []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
			nextTick()
		}},
		// The stray goes as the document comes, so the directory's size
		// does not tell either: only the ledger line says runs/ moved.
		{"a document and its ledger line inside the last listing's tick", func() {
			if err := os.Remove(stray); err != nil {
				t.Fatal(err)
			}
			publish(t, dir.Archive(k(11)), minimalDoc)
			appendBytes(t, dir.Index(), ledgerLine(k(11), 11, "w1"))
			sameTick()
		}},
		{"the ledger deleted", func() {
			if err := os.Remove(dir.Index()); err != nil {
				t.Fatal(err)
			}
		}},
		{"a new ledger", func() {
			appendBytes(t, dir.Index(), ledgerLine(k(7), 7, "w4"))
		}},
	} {
		if fi, err := os.Stat(dir.Runs()); err == nil {
			listed = fi.ModTime()
		}
		step.do()
		sameViews(t, step.name, sn, st, keys)
	}

	// The script reached what it set out to: the views are not equal
	// because both sides are empty.
	status, err := sn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != 1 || status.LedgerLines != 1 || status.Archived != 3 || status.Campaign != "grid2" || status.InFlight != 1 {
		t.Fatalf("settled status: %+v", status)
	}
	if m, err := sn.Marginals("seed"); err != nil || m.Cells != 1 {
		t.Fatalf("settled marginals: %+v err=%v", m, err)
	}
}

// GC compacts the ledger by renaming a rewritten file into place. A
// Snapshot that remembered an offset into the old file must fold the new
// one from zero — also when the new file is longer than that offset,
// where only its identity says it is not the old one with more appended.
func TestSnapshotSurvivesLedgerCompaction(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	st, err := Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	var keys []string
	add := func(from, to int) {
		for i := from; i < to; i++ {
			key := syntheticKey(i)
			keys = append(keys, key)
			publish(t, dir.Archive(key), minimalDoc)
			appendBytes(t, dir.Index(), ledgerLine(key, i, "w"))
			appendBytes(t, dir.Log(), logLine(i, key, "done", 0.5))
		}
	}
	compact := func(step string, maxRuns int) {
		t.Helper()
		before, err := os.Stat(dir.Index())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := st.GC(GCOptions{MaxRuns: maxRuns})
		if err != nil || !rep.LedgerCompacted {
			t.Fatalf("%s: GC: %+v err=%v", step, rep, err)
		}
		after, err := os.Stat(dir.Index())
		if err != nil {
			t.Fatal(err)
		}
		if os.SameFile(before, after) {
			t.Fatalf("%s: the compacted ledger is the old file: this test no longer tests a replacement", step)
		}
	}

	add(0, 6)
	sameViews(t, "six runs", sn, st, keys)
	compact("shrinking", 4)
	sameViews(t, "compacted to four", sn, st, keys)

	// Twenty more runs land unseen, then a compaction drops two: the new
	// ledger is three times the remembered offset.
	seen := sn.index.off
	add(6, 26)
	compact("growing", 22)
	if fi, err := os.Stat(dir.Index()); err != nil || fi.Size() <= seen {
		t.Fatalf("the replacement (%d bytes) is not longer than the remembered offset %d", fi.Size(), seen)
	}
	sameViews(t, "compacted to twenty-two", sn, st, keys)
	if runs, err := sn.Runs(); err != nil || len(runs) != 22 {
		t.Fatalf("after the second compaction: %d runs, err=%v", len(runs), err)
	}
	add(26, 28)
	sameViews(t, "appends after a compaction", sn, st, keys)
}

// Generation moves with every fold that can move what Runs returns, and
// not on an Advance or Follow that finds nothing moved. Follow folds the
// ledger without listing runs/, so its steps show the ledger's moves
// apart from the listing's.
func TestGenerationMovesWithEveryFold(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	st, err := Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	follow := func() error { return sn.Follow(Changes{}) }
	line := ledgerLine(syntheticKey(0), 0, "w")
	for _, step := range []struct {
		name   string
		change func()
		fold   func() error
		moves  bool
	}{
		{"a ledger line", func() { appendBytes(t, dir.Index(), line) }, follow, true},
		{"a duplicate ledger line", func() { appendBytes(t, dir.Index(), line) }, follow, true},
		{"an idle Follow", func() {}, follow, false},
		{"the first listing of runs/", func() {}, sn.Advance, true},
		{"an idle Advance", func() {}, sn.Advance, false},
		{"a document renamed into runs/", func() {
			publish(t, dir.Archive(syntheticKey(1)), minimalDoc)
			later := time.Now().Add(time.Second)
			if err := os.Chtimes(dir.Runs(), later, later); err != nil {
				t.Fatal(err)
			}
		}, sn.Advance, true},
		{"another idle Advance", func() {}, sn.Advance, false},
		{"a refold onto an empty ledger", func() { publish(t, dir.Index(), "") }, follow, true},
	} {
		gen := sn.Generation()
		step.change()
		if err := step.fold(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if moved := sn.Generation() != gen; moved != step.moves {
			t.Fatalf("%s: Generation moved: %v, want %v", step.name, moved, step.moves)
		}
	}
}

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}

// Advance costs what was appended, not what is there: over a 1000-line
// ledger and log, one more line in each is a hundred allocations (two
// opens, two reads, two decoded records), and an Advance that finds
// nothing moved allocates like Stamp() — the same handful of stats —
// also over 1000 documents in runs/. Folding the thousand lines from
// zero is about 11,100 allocations, mostly the decoded strings (19,300
// while json.Unmarshal decoded every line); its budget is that plus a
// quarter. The appended-line budget is measured with no
// documents in runs/: an append lists runs/ again by design, which over
// 1000 documents costs what every 200 cost before the listing was held.
func TestAdvanceCostsWhatWasAppended(t *testing.T) {
	skipUnderRace(t)
	dir := campaign.Dir(t.TempDir())
	var ledger, log strings.Builder
	for i := 0; i < 1000; i++ {
		ledger.WriteString(ledgerLine(syntheticKey(i), i, "w"))
		log.WriteString(logLine(i, syntheticKey(i), "done", 0.5))
	}
	appendBytes(t, dir.Index(), ledger.String())
	appendBytes(t, dir.Log(), log.String())
	publish(t, dir.Manifest(), manifestDoc("grid", 1000, ""))
	st, err := Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	advance := func() {
		if err := sn.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	advance()
	runtime.ReadMemStats(&after)
	cold := after.Mallocs - before.Mallocs
	t.Logf("the first Advance, over 1000 ledger and 1000 log lines: %d allocations", cold)
	if cold > 14000 {
		t.Errorf("the first Advance over 1000 ledger and 1000 log lines allocates %d times, budget 14000: lines went back to json.Unmarshal", cold)
	}

	stamp := testing.AllocsPerRun(10, func() { st.Stamp() })
	idleBudget := func(docs int) {
		t.Helper()
		idle := testing.AllocsPerRun(10, advance)
		t.Logf("Stamp() %v allocations, an idle Advance over %d documents %v", stamp, docs, idle)
		if idle > stamp+8 {
			t.Errorf("an Advance with nothing changed over %d documents allocates %v times, Stamp() %v: it did more than stat", docs, idle, stamp)
		}
	}
	idleBudget(0)

	// AllocsPerRun counts the appends too; a writer's own cost is taken
	// out by measuring it alone.
	i := 1000
	write := func() {
		appendBytes(t, dir.Index(), ledgerLine(syntheticKey(i), i, "w"))
		appendBytes(t, dir.Log(), logLine(i, syntheticKey(i), "done", 0.5))
		i++
	}
	writes := testing.AllocsPerRun(5, write)
	appended := testing.AllocsPerRun(5, func() { write(); advance() }) - writes
	t.Logf("an Advance over one appended ledger line and one log line: %v allocations", appended)
	if appended > 100 {
		t.Errorf("Advance after one line appended to each file allocates %v times, budget 100: it is O(ledger), not O(appended)", appended)
	}
	if runs, err := sn.Runs(); err != nil || len(runs) != i {
		t.Fatalf("the measured Advances folded %d runs of %d, err=%v", len(runs), i, err)
	}

	for k := 0; k < 1000; k++ {
		publish(t, dir.Archive(syntheticKey(k)), minimalDoc)
	}
	advance()
	status, err := sn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Archived != 1000 {
		t.Fatalf("the Advance after 1000 documents were published lists %d", status.Archived)
	}
	idleBudget(1000)
}
