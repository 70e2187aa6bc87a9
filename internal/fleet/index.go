package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/persist"
)

// The archive index, runs/index.json, is the campaign cache's ledger: one
// JSON object per line, appended when a run's archive is published. At
// million-run scale it lets resume and finalize learn the completed set —
// and which owner executed each run — from one sequential read instead of
// an O(runs) directory scan. The index is advisory: archive files remain
// the ground truth (a run is complete exactly when runs/<key>.json loads),
// so a missing or stale index loses attribution, never results.
//
// Appends are single O_APPEND writes of one newline-terminated line,
// which the kernel serialises across processes on POSIX-semantics
// filesystems; every reader goes through ScanLines, which skips torn,
// blank and oversized lines, so a worker killed mid-append (or a garbage
// line of any length) cannot poison the ledger. On filesystems that only
// approximate O_APPEND across machines (NFS), concurrent appends can
// overwrite each other — losing a line's attribution, never a result,
// because the archives stay the ground truth.

// IndexEntry records one run execution in runs/index.json.
type IndexEntry struct {
	// Key is the run's content address (the archive is runs/<key>.json).
	Key string `json:"key"`
	// Run is the expansion index of the cell that triggered the execution
	// (the primary cell, for grids with duplicate keys).
	Run int `json:"run"`
	// Scenario is the cell's scenario display name.
	Scenario string `json:"scenario,omitempty"`
	// Backend is the measurement substrate that executed the run ("sim",
	// "wire"); empty for ledgers written before the backend axis existed.
	Backend string `json:"backend,omitempty"`
	// Owner is the worker that executed the run.
	Owner string `json:"owner,omitempty"`
	// Cache is the disposition that produced the archive — "miss" for a
	// fresh execution (the only kind appended today).
	Cache       string  `json:"cache,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// CompletedUnix is the archive publication time.
	CompletedUnix float64 `json:"completed_unix,omitempty"`
}

// AppendIndex appends one entry to the index as a single atomic
// O_APPEND write.
func AppendIndex(path string, e IndexEntry) error {
	if err := AppendLine(path, e); err != nil {
		return err
	}
	mLedgerAppends.Inc()
	return nil
}

// AppendLine appends v as one newline-terminated JSON line to path,
// creating the file (and parent directories) if needed. The line is
// written with a single O_APPEND write, so concurrent appenders from any
// number of processes interleave whole lines, never bytes.
func AppendLine(path string, v any) error {
	line, err := EncodeLine(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// EncodeLine renders v as the newline-terminated JSON line AppendLine
// appends — and a ledger compaction re-emits, so a rewritten ledger is
// encoded exactly like an appended one.
func EncodeLine(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(data, '\n'), err
}

// MaxLine is the longest line, terminator excluded, that ScanLines
// delivers. Real records are a few hundred bytes; the cap bounds what
// one garbage line can make a reader buffer, and writers that accept
// remote input (POST /ingest) refuse to append anything longer.
const MaxLine = 1 << 20

// ScanLines is the one reader of the files AppendLine writes. It calls fn
// with each complete line of path from byte offset on, surrounding white
// space trimmed, and returns the offset just past the last '\n' it saw.
// Only '\n'-terminated lines are consumed, so a torn tail (a writer
// mid-append, or killed there) stays for the next call; a blank line or
// one longer than MaxLine is consumed and skipped, never an error. A
// file shorter than offset was truncated or replaced and is read from
// the start; a missing file is zero lines at offset 0. The file streams
// through a fixed buffer and fn must not retain line, so memory is
// bounded by the longest accepted line, not by the file.
func ScanLines(path string, offset int64, fn func(line []byte)) (next int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return offset, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return offset, err
	}
	if fi.Size() < offset {
		offset = 0
	}
	if fi.Size() == offset {
		return offset, nil
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return offset, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	next = offset
	var long []byte // the head of a line that outgrew the reader's buffer
	var n int       // bytes of the current line read so far
	for {
		frag, err := r.ReadSlice('\n')
		n += len(frag)
		if err == bufio.ErrBufferFull {
			if n <= MaxLine {
				long = append(long, frag...)
			}
			continue
		}
		if err != nil {
			if err == io.EOF {
				err = nil // what is left is a torn tail: not consumed
			}
			return next, err
		}
		next += int64(n)
		if n-1 <= MaxLine {
			if len(long) > 0 {
				frag = append(long, frag...)
			}
			if line := bytes.TrimSpace(frag); len(line) > 0 {
				fn(line)
			}
		}
		long, n = long[:0], 0
	}
}

// ScanIndex is ScanLines over a ledger, and the one definition of a
// well-formed ledger line: one that decodes to an IndexEntry whose key is
// a content address (IsArchiveKey). Anything else is ignored by every
// reader alike: it is not a run, not a ledger line in any count, emits
// no event and does not survive a compaction.
func ScanIndex(path string, offset int64, fn func(IndexEntry)) (next int64, err error) {
	return ScanLines(path, offset, func(line []byte) {
		if e, err := decodeIndexEntry(line); err == nil && IsArchiveKey(e.Key) {
			fn(e)
		}
	})
}

// decodeIndexEntry is json.Unmarshal of one ledger line into an
// IndexEntry, read in one pass by readIndexEntry when the line is in the
// form EncodeLine writes.
func decodeIndexEntry(line []byte) (e IndexEntry, err error) {
	if e, ok := readIndexEntry(line); ok {
		return e, nil
	}
	err = json.Unmarshal(line, &e)
	return e, err
}

// readIndexEntry is decodeIndexEntry's fast path (see persist.Fields): it
// reports false for any line it does not read as json.Unmarshal would.
func readIndexEntry(line []byte) (e IndexEntry, ok bool) {
	f := persist.ReadFields(line)
	e.Key = f.String("key")
	e.Run = f.Int("run")
	e.Scenario = f.String("scenario")
	e.Backend = f.String("backend")
	e.Owner = f.String("owner")
	e.Cache = f.String("cache")
	e.WallSeconds = f.Float("wall_seconds")
	e.CompletedUnix = f.Float("completed_unix")
	return e, f.Done()
}

// ReadIndex reads every well-formed entry (see ScanIndex) of an index
// file, in append order; a missing file is an empty index, not an error.
func ReadIndex(path string) (entries []IndexEntry, err error) {
	_, err = ScanIndex(path, 0, func(e IndexEntry) { entries = append(entries, e) })
	return entries, err
}

// Ledger is the one first-record-per-key fold of an index, fed an entry
// at a time so a holder (archive.Snapshot) can extend it with only the
// lines appended since. The first record per key wins: the first
// completion is the execution, later ones idempotent re-executions.
type Ledger struct {
	First []IndexEntry   // each key's execution record, in append order
	At    map[string]int // key -> position in First
	Lines int            // well-formed lines folded, duplicates included
}

// Add folds one more well-formed entry, in file order.
func (l *Ledger) Add(e IndexEntry) {
	l.Lines++
	if _, dup := l.At[e.Key]; dup {
		return
	}
	if l.At == nil {
		l.At = make(map[string]int)
	}
	l.At[e.Key] = len(l.First)
	l.First = append(l.First, e)
}

// Executions reads the index and returns the execution record of each
// key in append order (Ledger.First) plus the number of well-formed
// lines read, duplicates included.
func Executions(path string) (first []IndexEntry, lines int, err error) {
	var l Ledger
	if _, err := ScanIndex(path, 0, l.Add); err != nil {
		return nil, 0, err
	}
	return l.First, l.Lines, nil
}

// IsArchiveKey reports whether s looks like a sha256 hex digest — the
// archive filename pattern; anything else in runs/ (tmp siblings, strays)
// is not an archive. Query layers use it both to filter directory scans
// and to reject path-traversal attempts in user-supplied keys.
func IsArchiveKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NowUnix is the wall-clock stamp helper index appenders use.
func NowUnix() float64 { return unixSeconds(time.Now()) }
