package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestDriftExperimentDegradesMonotonically(t *testing.T) {
	if testing.Short() {
		t.Skip("drift sweep runs 60 broadcasts")
	}
	r, out, dir := quick(t, 0) // keep the experiment's own 12 iterations
	r.cfg.Workers = runtime.GOMAXPROCS(0)
	data, err := r.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != len(driftIntensities) {
		t.Fatalf("rows = %d, want %d", len(data.Rows), len(driftIntensities))
	}
	// The static end of the sweep recovers the sites exactly; the fully
	// drifted end has lost the inter-site contrast.
	if first := data.Rows[0]; first.NMI < 0.95 || first.Events != 0 {
		t.Fatalf("intensity 0: NMI=%.3f events=%d, want a perfect static recovery", first.NMI, first.Events)
	}
	if last := data.Rows[len(data.Rows)-1]; last.NMI > 0.3 {
		t.Fatalf("intensity 1: NMI=%.3f, want the contrast gone (<= 0.3)", last.NMI)
	}
	// Monotonically-ish: accuracy never recovers as the drift intensifies
	// (a small tolerance absorbs clustering noise near zero).
	for i := 1; i < len(data.Rows); i++ {
		prev, cur := data.Rows[i-1], data.Rows[i]
		if cur.NMI > prev.NMI+0.05 {
			t.Fatalf("NMI rose with intensity: %.3f at %.2f -> %.3f at %.2f",
				prev.NMI, prev.Intensity, cur.NMI, cur.Intensity)
		}
		if cur.Events <= prev.Events {
			t.Fatalf("event count not increasing with intensity: %d -> %d", prev.Events, cur.Events)
		}
	}
	if !strings.Contains(out.String(), "E17") {
		t.Fatal("drift table not emitted")
	}
	if _, err := os.Stat(filepath.Join(dir, "e17_drift.csv")); err != nil {
		t.Fatal("drift CSV not written")
	}
}

func TestSaveCSVCreatesNestedDataDir(t *testing.T) {
	// The CSV emit path must create missing (possibly nested) data
	// directories instead of erroring — campaign directories are dated.
	dir := filepath.Join(t.TempDir(), "results", "2026-07", "drift")
	var sb strings.Builder
	r := New(Config{Scale: 0.05, Iterations: 2, Seed: 1, Out: &sb, DataDir: dir})
	if _, err := r.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4_bars.csv")); err != nil {
		t.Fatalf("CSV not written into nested data dir: %v", err)
	}
}
