package archive

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// FuzzSnapshotAdvance decodes its input into a writer's (and an
// operator's, and a crash's) operations on the ledger and the streamed
// manifest, one per byte — bit 0 picks the file, bits 1-3 the operation,
// bits 4-7 its argument:
//
//	0 append a well-formed line (six keys, so duplicates and re-appends occur)
//	1 append a garbage line, or one whose key is not a content address
//	2 append the head of a well-formed line and no terminator
//	3 append a line over fleet.MaxLine (once per file; garbage after that)
//	4 truncate to arg/16 of the size
//	5 replace by rename, as GC's compaction does: every third line dropped,
//	  and for arg >= 8 more lines added than were dropped
//	6 append a bare terminator (completing a torn tail, as garbage or not)
//	7 delete
//
// After each operation one long-lived Snapshot is advanced and must show
// what a fresh read of the directory shows, on every view. A second one
// is driven through Follow, and its delta must be what the fresh read
// implies: the Run keys handed over are exactly the fresh ledger's keys
// the previous step's did not hold, in ledger order (so they are distinct
// and cover the ledger, and while only appends have touched it they are
// the ledger in order), and the Cell records handed over since the log
// last became a new history (replaced, deleted, or truncated below what
// was consumed) are a fresh TailLog(0). The seed corpus is in
// testdata/fuzz/FuzzSnapshotAdvance.
func FuzzSnapshotAdvance(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x11, 0x04, 0x0c, 0x3a, 0x8a})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		dir := campaign.Dir(t.TempDir())
		st, err := Open(string(dir))
		if err != nil {
			t.Fatal(err)
		}
		// What stands in for the cells whenever an operation deletes the log.
		publish(t, dir.Manifest(), manifestDoc("fuzz", 2, strings.TrimSuffix(logLine(0, syntheticKey(0), "done", 0.5), "\n")))
		keys := []string{"x"}
		for i := 0; i < 6; i++ {
			keys = append(keys, syntheticKey(i))
		}
		publish(t, dir.Archive(syntheticKey(1)), minimalDoc)

		sn := st.Snapshot()
		fo := st.Snapshot()
		var (
			held     map[string]bool  // the fresh ledger's keys at the previous step
			runs     []string         // every Run key fo handed over
			pristine = true           // only appends have touched the ledger
			cells    []campaign.Entry // Cell records since the log's last new history
		)
		var oversized [2]bool
		for step, op := range ops {
			file, arg := int(op&1), int(op>>4)
			path := dir.Index()
			valid := ledgerLine(syntheticKey(arg%6), arg, fmt.Sprintf("w%d", arg%3))
			if file == 1 {
				path = dir.Log()
				status := "done"
				if arg&8 != 0 {
					status = "failed"
				}
				valid = logLine(arg%4, syntheticKey(arg%6), status, float64(arg)/16)
			}
			rewritten := false // more than appended to
			switch op >> 1 & 7 {
			case 0:
				appendBytes(t, path, valid)
			case 1:
				garbage := "not json\n"
				if arg&1 != 0 {
					garbage = `{"key":"x","index":1,"status":"done"}` + "\n"
				}
				appendBytes(t, path, garbage)
			case 2:
				appendBytes(t, path, valid[:8+4*arg])
			case 3:
				if oversized[file] {
					appendBytes(t, path, "{}\n")
					break
				}
				oversized[file] = true
				appendBytes(t, path, strings.Repeat("#", fleet.MaxLine+1+arg)+"\n")
			case 4:
				if fi, err := os.Stat(path); err == nil {
					size := fi.Size() * int64(arg) / 16
					if err := os.Truncate(path, size); err != nil {
						t.Fatal(err)
					}
					// A log truncated within its unconsumed torn tail
					// goes on; below it, it is a new history.
					rewritten = file == 0 || size < fo.log.off
				}
			case 5:
				data, err := os.ReadFile(path)
				if err != nil {
					break
				}
				var kept bytes.Buffer
				for i, line := range bytes.SplitAfter(data, []byte("\n")) {
					if i%3 != arg%3 {
						kept.Write(line)
					}
				}
				if arg >= 8 {
					kept.WriteString(strings.Repeat(valid, len(data)/len(valid)+1))
				}
				publish(t, path, kept.String())
				rewritten = true
			case 6:
				appendBytes(t, path, "\n")
			case 7:
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
				rewritten = true
			}
			name := fmt.Sprintf("step %d (op %#02x)", step, op)
			sameViews(t, name, sn, st, keys)

			if rewritten && file == 0 {
				pristine = false
			}
			if rewritten && file == 1 {
				cells = nil
			}
			var delta []string
			err := fo.Follow(Changes{
				Cell: func(e campaign.Entry) { cells = append(cells, e) },
				Run:  func(e fleet.IndexEntry) { delta = append(delta, e.Key) },
			})
			if err != nil {
				t.Fatalf("%s: Follow: %v", name, err)
			}
			ledger, _, err := fleet.Executions(dir.Index())
			if err != nil {
				t.Fatal(err)
			}
			var ledgerKeys, news []string
			for _, e := range ledger {
				ledgerKeys = append(ledgerKeys, e.Key)
				if !held[e.Key] {
					news = append(news, e.Key)
				}
			}
			if !slices.Equal(delta, news) {
				t.Fatalf("%s: Follow handed over runs %v, want the keys the fold did not hold %v", name, delta, news)
			}
			held = make(map[string]bool, len(ledgerKeys))
			for _, k := range ledgerKeys {
				held[k] = true
			}
			runs = append(runs, delta...)
			if pristine && !slices.Equal(runs, ledgerKeys) {
				t.Fatalf("%s: an append-only ledger %v was handed over as %v", name, ledgerKeys, runs)
			}
			tailed, _, err := st.TailLog(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells)+len(tailed) > 0 && !reflect.DeepEqual(cells, tailed) {
				t.Fatalf("%s: Follow handed over cells\n%+v\nsince the log's last new history, TailLog(0) reads\n%+v", name, cells, tailed)
			}
		}
	})
}
