package archive

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// tracedArchive executes the four-cell test campaign with tracing on
// and returns the directory plus a Store over it.
func tracedArchive(t *testing.T) (string, *Store) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "camp")
	_, err := campaign.Execute(testCampaign(t), campaign.ExecOptions{
		OutDir:   dir,
		Jobs:     2,
		Resume:   true,
		TraceDir: campaign.Dir(dir).Traces(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, st
}

// Every computed cell must leave one trace file, and the aggregation
// must surface the pipeline's phases with as many measure spans as the
// campaign ran iterations.
func TestTracesAggregateByPhase(t *testing.T) {
	_, st := tracedArchive(t)
	sum, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 4 {
		t.Fatalf("traced files: want 4, got %d", sum.Files)
	}
	byPhase := make(map[string]PhaseStat)
	for _, p := range sum.Phases {
		byPhase[p.Phase] = p
	}
	// 4 runs x 2 iterations of the per-iteration phases; the scoring
	// phases (cluster, nmi) run on the merger's cadence, so at least
	// once per run.
	for _, phase := range []string{"measure", "merge", "clone"} {
		p, ok := byPhase[phase]
		if !ok {
			t.Errorf("phase %q missing from aggregation: %+v", phase, sum.Phases)
			continue
		}
		if p.Spans != 8 {
			t.Errorf("phase %q: want 8 spans, got %d", phase, p.Spans)
		}
	}
	for _, phase := range []string{"cluster", "nmi"} {
		if p := byPhase[phase]; p.Spans < 4 {
			t.Errorf("phase %q: want >= 4 spans, got %d", phase, p.Spans)
		}
	}
	// One compile span per computed run.
	if p := byPhase["compile"]; p.Spans != 4 {
		t.Errorf("phase compile: want 4 spans, got %d", p.Spans)
	}
	for i := 1; i < len(sum.Phases); i++ {
		if sum.Phases[i-1].Seconds < sum.Phases[i].Seconds {
			t.Fatalf("phases not sorted by seconds descending: %+v", sum.Phases)
		}
	}
}

// A missing traces directory is an empty summary, not an error, and
// non-trace files inside it are ignored.
func TestTracesToleratesAbsenceAndStrays(t *testing.T) {
	_, _, st := writtenArchive(t)
	sum, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 0 || len(sum.Phases) != 0 {
		t.Fatalf("untraced archive not empty: %+v", sum)
	}

	dir, st2 := tracedArchive(t)
	if err := os.WriteFile(filepath.Join(campaign.Dir(dir).Traces(), "notes.jsonl"), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum2, err := st2.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Files != 4 {
		t.Fatalf("stray file counted as a trace: %d files", sum2.Files)
	}
}

// A trace file is read like every append-only file of the archive,
// through fleet.ScanLines: the nameless header, garbage, an over-long
// line and a torn unterminated tail are skipped, never an error, and
// every whole span line around them still counts.
func TestTracesSkipHeaderGarbageAndTornLines(t *testing.T) {
	dir := t.TempDir()
	traces := campaign.Dir(dir).Traces()
	if err := os.MkdirAll(traces, 0o755); err != nil {
		t.Fatal(err)
	}
	text := `{"trace":"run","key":"abc","phases":{"measure_seconds":9}}` + "\n" +
		`{"name":"measure","iter":1,"start_unix":1,"seconds":2}` + "\n" +
		"not json\n" +
		"\n" +
		`{"name":"","seconds":100}` + "\n" +
		`{"name":"` + strings.Repeat("x", fleet.MaxLine) + `","seconds":100}` + "\n" +
		`{"name":"measure","iter":2,"start_unix":3,"seconds":0.5}` + "\n" +
		`{"name":"cluster","seconds":0.25}` + "\n" +
		`{"name":"measure","seconds":100` // torn: the writer died mid-line
	if err := os.WriteFile(filepath.Join(traces, strings.Repeat("ab", 32)+".jsonl"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	want := []PhaseStat{{Phase: "measure", Spans: 2, Seconds: 2.5}, {Phase: "cluster", Spans: 1, Seconds: 0.25}}
	if sum.Files != 1 || !reflect.DeepEqual(sum.Phases, want) {
		t.Fatalf("got %+v, want 1 file with %+v", sum, want)
	}
}

// The regression the telemetry layer must never introduce: trace writes
// land under traces/, and Stamp() — the HTTP service's ETag source —
// must not move for them. Only the coordination files (ledger,
// manifests, aggregate) may churn the change detector.
func TestStampIgnoresTraceWrites(t *testing.T) {
	dir, st := tracedArchive(t)
	before := st.Stamp()
	// Simulate another fleet worker publishing a trace into a live
	// archive (mtime in the future so any stat-based detector that
	// looked at traces/ would definitely move).
	stray := filepath.Join(campaign.Dir(dir).Traces(), strings.Repeat("cd", 32)+".jsonl")
	if err := os.WriteFile(stray, []byte(`{"name":"measure","iter":0,"start_unix":1,"seconds":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(stray, future, future); err != nil {
		t.Fatal(err)
	}
	if after := st.Stamp(); after != before {
		t.Fatalf("Stamp churned on a trace write:\nbefore %q\nafter  %q", before, after)
	}
}
