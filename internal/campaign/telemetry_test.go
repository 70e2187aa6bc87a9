package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/scenario"
)

// workersCampaign is the telemetry-parity grid: two scenarios x two
// seeds at a fixed inner worker count. Workers is execution policy —
// excluded from content keys — so the same four keys come out at any
// worker count.
func workersCampaign(t *testing.T, workers int) *Spec {
	t.Helper()
	specPath := filepath.Join(t.TempDir(), "tiny.json")
	if err := persist.SaveSpec(specPath, scenario.NSites(2, 3, 890, 100)); err != nil {
		t.Fatal(err)
	}
	return NewBuilder("parity-test").
		Scenario("2x2").
		ScenarioFile(specPath).
		Iterations(2).
		Seeds(1, 2).
		Scales(0.02).
		Workers(workers).
		mustSpec()
}

// readRunDocs maps key -> archived document bytes for every run file.
func readRunDocs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	runsDir := filepath.Join(dir, "runs")
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		t.Fatal(err)
	}
	docs := make(map[string][]byte)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" || e.Name() == "index.json" {
			continue
		}
		docs[e.Name()] = readFile(t, filepath.Join(runsDir, e.Name()))
	}
	return docs
}

// The telemetry layer's inertness contract, end to end: executing the
// same grid with per-run tracing on and off yields byte-identical
// archived documents, on both the sequential (Workers=1) and parallel
// (Workers=4) measurement paths. Tracing must observe the pipeline,
// never perturb it — and its output must stay out of the archive's
// content-addressed namespace.
func TestTracingIsByteNeutral(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spec := workersCampaign(t, workers)

		off := filepath.Join(t.TempDir(), "off")
		// Jobs must stay 1: campaign-level fan-out forces inner workers
		// to 1, which would silently collapse the two cases.
		mustExecute(t, spec, ExecOptions{OutDir: off, Jobs: 1, Resume: true})

		on := filepath.Join(t.TempDir(), "on")
		traceDir := filepath.Join(on, "traces")
		mustExecute(t, spec, ExecOptions{OutDir: on, Jobs: 1, Resume: true, TraceDir: traceDir})

		offDocs, onDocs := readRunDocs(t, off), readRunDocs(t, on)
		if len(offDocs) != 4 || len(onDocs) != 4 {
			t.Fatalf("Workers=%d: want 4 archived docs each, got %d off / %d on", workers, len(offDocs), len(onDocs))
		}
		for name, offBytes := range offDocs {
			onBytes, ok := onDocs[name]
			if !ok {
				t.Fatalf("Workers=%d: key %s archived without tracing but not with it", workers, name)
			}
			if !bytes.Equal(offBytes, onBytes) {
				t.Fatalf("Workers=%d: archive %s differs between tracing off and on", workers, name)
			}
		}

		traces, err := os.ReadDir(traceDir)
		if err != nil {
			t.Fatalf("Workers=%d: no trace directory after a traced run: %v", workers, err)
		}
		if len(traces) != 4 {
			t.Fatalf("Workers=%d: want 4 trace files, got %d", workers, len(traces))
		}
		if _, err := os.Stat(filepath.Join(off, "traces")); !os.IsNotExist(err) {
			t.Fatalf("Workers=%d: untraced run created a traces directory", workers)
		}
	}
}
