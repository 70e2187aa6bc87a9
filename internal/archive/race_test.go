package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// syntheticKey derives a distinct well-formed content key.
func syntheticKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

// minimalDoc is a well-formed result document for read-path tests that
// never decode deeply.
const minimalDoc = `{"version": 1, "n": 2, "labels": [0, 1], "q": 0.5, "sim_time_seconds": 1}`

// A ledger with torn, blank and garbage lines interleaved among good
// ones must read as exactly the good entries — and a duplicated key
// must count once.
func TestRunsTolerateTornLedger(t *testing.T) {
	dir := t.TempDir()
	runsDir := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	k1, k2 := syntheticKey(1), syntheticKey(2)
	ledger := strings.Join([]string{
		fmt.Sprintf(`{"key":"%s","run":0,"owner":"a"}`, k1),
		`{"key":"`, // torn mid-append
		``,
		`not json at all`,
		fmt.Sprintf(`{"key":"%s","run":1,"owner":"b"}`, k2),
		fmt.Sprintf(`{"key":"%s","run":0,"owner":"c"}`, k1),             // post-crash duplicate
		fmt.Sprintf(`{"key":"%s","run":2,"owner":"a"`, syntheticKey(3)), // torn: no newline, no brace
	}, "\n")
	if err := os.WriteFile(filepath.Join(runsDir, "index.json"), []byte(ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Key != k1 || runs[1].Key != k2 {
		t.Fatalf("torn ledger misread: %+v", runs)
	}
	if runs[0].Owner != "a" {
		t.Fatalf("duplicate line displaced the first record: %+v", runs[0])
	}
	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != 2 || status.LedgerLines != 3 {
		t.Fatalf("status over torn ledger wrong: %+v", status)
	}
}

// One garbage line over the reader's cap used to fail every query that
// read the file (bufio.Scanner: token too long). It is skipped like any
// other garbage line, in the ledger and in the streamed manifest.
func TestQueriesSkipOversizedLine(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	k1, k2 := syntheticKey(1), syntheticKey(2)
	garbage := strings.Repeat("x", 2*fleet.MaxLine)
	ledger := fmt.Sprintf(`{"key":"%s","run":0,"owner":"a"}`+"\n%s\n"+`{"key":"%s","run":1,"owner":"b"}`+"\n", k1, garbage, k2)
	if err := os.WriteFile(filepath.Join(dir, "runs", "index.json"), []byte(ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	cell := `{"index":%d,"config":"seed=%d","key":"%s","status":"done","q":0.5}` + "\n"
	log := fmt.Sprintf(cell, 0, 1, k1) + garbage + "\n" + fmt.Sprintf(cell, 1, 2, k2)
	if err := os.WriteFile(filepath.Join(dir, "manifest.log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	status, err := st.Status()
	if err != nil || status.Executed != 2 || status.LedgerLines != 2 {
		t.Fatalf("Status: %+v err=%v", status, err)
	}
	runs, err := st.Runs()
	if err != nil || len(runs) != 2 {
		t.Fatalf("Runs: %+v err=%v", runs, err)
	}
	detail, err := st.Get(k2)
	if err != nil || detail.Owner != "b" {
		t.Fatalf("Get: %+v err=%v", detail, err)
	}
	m, err := st.Marginals("seed")
	if err != nil || m.Cells != 2 || len(m.Points) != 2 {
		t.Fatalf("Marginals: %+v err=%v", m, err)
	}
}

// The mid-write contract, under -race: a Store opened while a writer is
// appending ledger lines (including partial ones) and publishing
// archives by rename must never return an error or double-count a key —
// and neither must one long-lived Snapshot that every reader advances
// and queries under a lock, as the HTTP handler's does.
func TestReadsDuringLiveWriter(t *testing.T) {
	dir := t.TempDir()
	runsDir := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	tracesDir := campaign.Dir(dir).Traces()
	if err := os.MkdirAll(tracesDir, 0o755); err != nil {
		t.Fatal(err)
	}

	const total = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex // guards shared
	shared := st.Snapshot()
	wg.Add(1)
	go func() { // the writer: publish-by-rename, then ledger append
		defer wg.Done()
		defer close(stop)
		idx := filepath.Join(runsDir, "index.json")
		logPath := filepath.Join(dir, "manifest.log")
		for i := 0; i < total; i++ {
			key := syntheticKey(i)
			tmp := filepath.Join(runsDir, key+".json.tmp-w")
			if err := os.WriteFile(tmp, []byte(minimalDoc), 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(tmp, filepath.Join(runsDir, key+".json")); err != nil {
				t.Error(err)
				return
			}
			// A trace file per run — torn mid-span every 5th, as a
			// killed worker leaves it.
			trace := `{"name":"aggregate","seconds":0.5}` + "\n"
			if i%5 == 0 {
				trace += `{"name":"memb`
			}
			if err := os.WriteFile(filepath.Join(tracesDir, key+".jsonl"), []byte(trace), 0o644); err != nil {
				t.Error(err)
				return
			}
			// The streamed manifest line the cell's completion appends.
			if err := fleet.AppendLine(logPath, map[string]any{
				"index": i, "key": key, "status": "done", "scenario": "s", "q": 0.5,
			}); err != nil {
				t.Error(err)
				return
			}
			// A torn prefix first — what a kill mid-append leaves — then
			// the whole line, exactly as O_APPEND writers interleave.
			if i%7 == 0 {
				f, err := os.OpenFile(idx, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(f, `{"key":"%s","ru`+"\n", syntheticKey(total+i))
				f.Close()
			}
			if err := fleet.AppendIndex(idx, fleet.IndexEntry{Key: key, Run: i, Owner: "w"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	readers := 4
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() { // the readers: every query, continuously, until done
			defer wg.Done()
			var logOff int64
			tailed := make(map[string]bool)
			for {
				select {
				case <-stop:
					return
				default:
				}
				runs, err := st.Runs()
				if err != nil {
					t.Errorf("Runs during writes: %v", err)
					return
				}
				seen := make(map[string]bool, len(runs))
				for _, ri := range runs {
					if seen[ri.Key] {
						t.Errorf("key %s double-counted", ri.Key)
						return
					}
					seen[ri.Key] = true
				}
				if len(runs) > total {
					t.Errorf("phantom runs: %d > %d", len(runs), total)
					return
				}
				if _, err := st.Status(); err != nil {
					t.Errorf("Status during writes: %v", err)
					return
				}
				if len(runs) > 0 {
					if _, err := st.Get(runs[0].Key); err != nil {
						t.Errorf("Get during writes: %v", err)
						return
					}
				}
				mu.Lock()
				err = shared.Advance()
				var advanced []RunInfo
				if err == nil {
					advanced, err = shared.Runs()
				}
				if err == nil {
					_, err = shared.Status()
				}
				if err == nil && len(advanced) > 0 {
					_, err = shared.Get(advanced[len(advanced)-1].Key)
				}
				if err == nil {
					_, err = shared.Marginals("scenario")
				}
				mu.Unlock()
				if err != nil {
					t.Errorf("advanced Snapshot during writes: %v", err)
					return
				}
				// At least what the fresh read a moment earlier saw, each once.
				seen = make(map[string]bool, len(advanced))
				for _, ri := range advanced {
					if seen[ri.Key] {
						t.Errorf("advanced Snapshot double-counted key %s", ri.Key)
						return
					}
					seen[ri.Key] = true
				}
				if len(advanced) < len(runs) || len(advanced) > total {
					t.Errorf("advanced Snapshot lists %d runs; a fresh read had %d, the writer stops at %d", len(advanced), len(runs), total)
					return
				}
				if _, err := st.Traces(); err != nil {
					t.Errorf("Traces during writes: %v", err)
					return
				}
				// Incremental tails must never re-deliver a consumed line,
				// even while the writer interleaves torn prefixes.
				entries, off, err := st.TailLog(logOff)
				if err != nil {
					t.Errorf("TailLog during writes: %v", err)
					return
				}
				logOff = off
				for _, e := range entries {
					if tailed[e.Key] {
						t.Errorf("tail re-delivered key %s", e.Key)
						return
					}
					tailed[e.Key] = true
				}
				st.Stamp()
				st.TracesStamp()
			}
		}()
	}
	wg.Wait()

	// Settled: the final view must be complete and exact, and the
	// Snapshot that was advanced through every interleaving must show it.
	sameViews(t, "settled", shared, st, []string{syntheticKey(0), syntheticKey(total - 1), syntheticKey(total)})
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != total {
		t.Fatalf("settled archive has %d runs, want %d", len(runs), total)
	}
	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != total || status.Archived != total {
		t.Fatalf("settled status wrong: %+v", status)
	}
	// Every trace file read (torn ones degrade to their parseable
	// prefix, never drop the file), every complete span counted.
	traces, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if traces.Files != total {
		t.Fatalf("settled traces read %d files, want %d", traces.Files, total)
	}
	if len(traces.Phases) != 1 || traces.Phases[0].Phase != "aggregate" || traces.Phases[0].Spans != total {
		t.Fatalf("settled phase breakdown wrong: %+v", traces.Phases)
	}
	// A settled tail from zero delivers every streamed line exactly once.
	entries, _, err := st.TailLog(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != total {
		t.Fatalf("settled TailLog delivered %d entries, want %d", len(entries), total)
	}
}

// A document mid-publication (the temp file exists, the rename has not
// happened) must read as not-yet-archived, never as an error or a
// half-document.
func TestGetSkipsInFlightDocuments(t *testing.T) {
	dir := t.TempDir()
	runsDir := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	key := syntheticKey(0)
	// Ledgered, with the archive itself still a torn partial write at
	// the final name (pre-atomic-write crash damage).
	if err := fleet.AppendIndex(filepath.Join(runsDir, "index.json"),
		fleet.IndexEntry{Key: key, Run: 0, Owner: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runsDir, key+".json"), []byte(`{"version": 1, "n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if d.Doc != nil || d.Archived {
		t.Fatalf("torn document served as archived: %+v", d)
	}
	if d.Run != 0 || d.Owner != "w" {
		t.Fatalf("ledger attribution lost: %+v", d)
	}
}
