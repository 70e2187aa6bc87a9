package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// The tail contract in slow motion: complete lines are consumed exactly
// once, a torn trailing fragment stays unconsumed until the writer
// finishes it, garbage complete lines are skipped but consumed, and a
// shrunk file resets the offset instead of erroring.
func TestTailLogIncrements(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "manifest.log")

	// Missing file: zero entries at offset 0.
	entries, off, err := st.TailLog(0)
	if err != nil || len(entries) != 0 || off != 0 {
		t.Fatalf("missing log: entries=%v off=%d err=%v", entries, off, err)
	}

	append0 := func(s string) {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	k1, k2 := syntheticKey(1), syntheticKey(2)
	// One whole line, then a torn fragment with no newline.
	append0(fmt.Sprintf(`{"index":0,"key":"%s","status":"done"}`+"\n", k1))
	append0(`{"index":1,"key":"`)
	entries, off, err = st.TailLog(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != k1 {
		t.Fatalf("want exactly the complete line, got %+v", entries)
	}
	torn := off

	// The writer finishes the torn line: the tail resumes mid-file and
	// delivers it once.
	append0(fmt.Sprintf(`%s","status":"failed","error":"boom"}`+"\n", k2))
	entries, off, err = st.TailLog(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != k2 || entries[0].Status != "failed" {
		t.Fatalf("completed torn line misread: %+v", entries)
	}

	// Garbage and blank complete lines: consumed, not delivered, and a
	// tail at EOF stays put.
	append0("not json\n\n")
	entries, off2, err := st.TailLog(off)
	if err != nil || len(entries) != 0 {
		t.Fatalf("garbage lines delivered: %v err=%v", entries, err)
	}
	if off2 <= off {
		t.Fatalf("garbage lines not consumed: %d <= %d", off2, off)
	}
	entries, off3, err := st.TailLog(off2)
	if err != nil || len(entries) != 0 || off3 != off2 {
		t.Fatalf("tail at EOF moved: off=%d->%d entries=%v err=%v", off2, off3, entries, err)
	}

	// File replaced by something shorter (compaction): the tail resets
	// to zero and re-delivers from the top rather than erroring.
	if err := os.WriteFile(logPath, []byte(fmt.Sprintf(`{"index":9,"key":"%s","status":"done"}`+"\n", k1)), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _, err = st.TailLog(off3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Index != 9 {
		t.Fatalf("shrunk file not re-read from zero: %+v", entries)
	}
}

func TestTracesStampChangesWithTraces(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s0 := st.TracesStamp()
	if s0 != "-" {
		t.Fatalf("no traces dir should stamp '-', got %q", s0)
	}
	tracesDir := campaign.Dir(dir).Traces()
	if err := os.MkdirAll(tracesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s1 := st.TracesStamp()
	if err := os.WriteFile(filepath.Join(tracesDir, syntheticKey(0)+".jsonl"),
		[]byte(`{"name":"aggregate","seconds":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := st.TracesStamp()
	if s1 == s2 {
		t.Fatalf("stamp did not change on trace write: %q", s1)
	}
	// Stamp() must NOT move: traces are outside the archive ETag.
	if st.Stamp() != "-;-;-;-" {
		t.Fatalf("archive stamp moved on trace write: %q", st.Stamp())
	}
}

func TestFinalized(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Finalized() {
		t.Fatal("empty archive reported finalized")
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign.csv"), []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !st.Finalized() {
		t.Fatal("campaign.csv present but not finalized")
	}
}
