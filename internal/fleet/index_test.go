package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func key64(c byte) string { return strings.Repeat(string(c), 64) }

func TestIndexAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "index.json")
	want := []IndexEntry{
		{Key: key64('a'), Run: 0, Scenario: "GT", Owner: "w1", Cache: "miss", WallSeconds: 0.5},
		{Key: key64('b'), Run: 1, Scenario: "BT", Owner: "w2", Cache: "miss"},
	}
	for _, e := range want {
		if err := AppendIndex(path, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadIndexMissingFileIsEmpty(t *testing.T) {
	got, err := ReadIndex(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || got != nil {
		t.Fatalf("missing index: entries=%v err=%v", got, err)
	}
}

// A worker killed mid-append leaves a torn last line; readers must skip
// it and keep every whole line.
func TestReadIndexSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	if err := AppendIndex(path, IndexEntry{Key: key64('a'), Owner: "w"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"` + key64('b')[:10]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != key64('a') {
		t.Fatalf("torn index read = %+v", got)
	}
}

// Concurrent appenders interleave whole lines, never bytes.
func TestIndexConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := IndexEntry{Key: key64("0123456789abcdef"[i%16]), Run: i, Owner: "w"}
			if err := AppendIndex(path, e); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d entries, want %d", len(got), n)
	}
}

// The shared fold: first record per key wins, append order is kept, and
// the line count includes the duplicates.
func TestExecutionsFirstRecordWins(t *testing.T) {
	idx := filepath.Join(t.TempDir(), "index.json")
	// Duplicate key: an idempotent re-execution after a crash. The first
	// record is the execution.
	for _, e := range []IndexEntry{
		{Key: key64('a'), Owner: "first"},
		{Key: key64('a'), Owner: "second"},
		{Key: key64('b'), Owner: "w2"},
	} {
		if err := AppendIndex(idx, e); err != nil {
			t.Fatal(err)
		}
	}
	got, lines, err := Executions(idx)
	if err != nil {
		t.Fatal(err)
	}
	if lines != 3 || len(got) != 2 || got[0].Owner != "first" || got[1].Owner != "w2" {
		t.Fatalf("executions = %+v (%d lines)", got, lines)
	}
	// An absent index is no executions, not an error.
	got, lines, err = Executions(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(got) != 0 || lines != 0 {
		t.Fatalf("absent index: %+v lines=%d err=%v", got, lines, err)
	}
}

// appendRaw appends bytes to a file the way a foreign or crashed writer
// would: no JSON, no terminator discipline.
func appendRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// One garbage line over the cap used to fail the whole read (bufio.Scanner:
// token too long). It is consumed and skipped like any other garbage.
func TestScanLinesSkipsOversizedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")
	if err := AppendIndex(path, IndexEntry{Key: key64('a'), Owner: "w"}); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, append(bytes.Repeat([]byte{'x'}, 2<<20), '\n'))
	if err := AppendIndex(path, IndexEntry{Key: key64('b'), Owner: "w"}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	next, err := ScanLines(path, 0, func([]byte) { lines++ })
	if err != nil || lines != 2 || next != fi.Size() {
		t.Fatalf("ScanLines: %d lines, next=%d (size %d), err=%v", lines, next, fi.Size(), err)
	}
	got, err := ReadIndex(path)
	if err != nil || len(got) != 2 || got[0].Key != key64('a') || got[1].Key != key64('b') {
		t.Fatalf("ReadIndex over an oversized line: %+v err=%v", got, err)
	}
}

// The cap is on the line, terminator excluded: MaxLine bytes are
// delivered whole (through the reassembly path — the reader's buffer is
// 64 KiB), MaxLine+1 are not.
func TestScanLinesCapBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lines")
	appendRaw(t, path, append(bytes.Repeat([]byte{'a'}, MaxLine), '\n'))
	appendRaw(t, path, append(bytes.Repeat([]byte{'b'}, MaxLine+1), '\n'))
	appendRaw(t, path, []byte("tail\r\n"))
	var got []string
	if _, err := ScanLines(path, 0, func(line []byte) { got = append(got, string(line)) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != strings.Repeat("a", MaxLine) || got[1] != "tail" {
		t.Fatalf("delivered %d lines (lengths %d…)", len(got), len(got[0]))
	}
}

// FuzzScanLines holds the reader to its contract on arbitrary bytes: it
// never fails or panics, consumes exactly the '\n'-terminated prefix it
// reports, delivers only trimmed, non-blank, in-cap lines, and resuming
// from a returned offset neither repeats nor loses a line. The seed
// corpus is in testdata/fuzz/FuzzScanLines; the two seeds too large to
// check in as files are built here.
func FuzzScanLines(f *testing.F) {
	valid := []byte(`{"key":"` + key64('a') + `"}` + "\n")
	// A line that ends exactly at the reader's 64 KiB buffer, and one
	// that starts one byte before it.
	f.Add(slices.Concat(bytes.Repeat([]byte{'x'}, 64<<10-1), []byte{'\n'}, valid), uint32(64<<10-1))
	// An over-cap line between two valid ones.
	f.Add(slices.Concat(valid, bytes.Repeat([]byte{'<'}, MaxLine+1), []byte{'\n'}, valid), uint32(len(valid)+7))
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		path := filepath.Join(t.TempDir(), "lines")
		scan := func(offset int64) (lines []string, next int64) {
			next, err := ScanLines(path, offset, func(line []byte) {
				if len(line) == 0 || len(line) > MaxLine || bytes.IndexByte(line, '\n') >= 0 ||
					len(bytes.TrimSpace(line)) != len(line) {
					t.Fatalf("delivered a blank, untrimmed, multi-line or over-cap line (%d bytes)", len(line))
				}
				lines = append(lines, string(line))
			})
			if err != nil {
				t.Fatalf("ScanLines(%d): %v", offset, err)
			}
			return lines, next
		}

		// A prefix first, as a tail would have seen the file mid-growth.
		k := int(cut) % (len(data) + 1)
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		head, mid := scan(0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rest, end := scan(mid)
		whole, next := scan(0)

		if next < 0 || next > int64(len(data)) || (next > 0 && data[next-1] != '\n') {
			t.Fatalf("next=%d is not 0 or just past a newline (len %d)", next, len(data))
		}
		if end != next {
			t.Fatalf("resumed scan ended at %d, whole scan at %d", end, next)
		}
		if !slices.Equal(append(head, rest...), whole) {
			t.Fatalf("prefix+resume delivered %d+%d lines, one scan %d", len(head), len(rest), len(whole))
		}
		if again, at := scan(next); len(again) != 0 || at != next {
			t.Fatalf("second scan from next=%d delivered %d lines, moved to %d", next, len(again), at)
		}
	})
}
