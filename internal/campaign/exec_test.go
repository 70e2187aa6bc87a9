package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/scenario"
)

// testCampaign is a small four-cell grid over one registry scenario and
// one file scenario, at a payload cheap enough for structural tests.
func testCampaign(t *testing.T) *Spec {
	t.Helper()
	specPath := filepath.Join(t.TempDir(), "tiny.json")
	if err := persist.SaveSpec(specPath, scenario.NSites(2, 3, 890, 100)); err != nil {
		t.Fatal(err)
	}
	return NewBuilder("exec-test").
		Scenario("2x2").
		ScenarioFile(specPath).
		Iterations(2).
		Seeds(1, 2).
		Scales(0.02).
		mustSpec()
}

func mustExecute(t *testing.T, s *Spec, opt ExecOptions) *Outcome {
	t.Helper()
	out, err := Execute(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The resume contract end to end: a second invocation of the same
// campaign into the same archive performs zero recomputation — every cell
// is a cache hit — and the aggregate artifacts are byte-identical, for
// any combination of job counts.
func TestExecuteResumeIsExact(t *testing.T) {
	spec := testCampaign(t)
	out := filepath.Join(t.TempDir(), "camp")

	first := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 4, Resume: true})
	if first.Manifest.Misses != 4 || first.Manifest.Hits != 0 || first.Manifest.Failures != 0 {
		t.Fatalf("cold run: %+v", first.Manifest)
	}
	for i, doc := range first.Docs {
		if doc == nil {
			t.Fatalf("cell %d has no document", i)
		}
		if _, err := os.Stat(filepath.Join(out, "runs", first.Runs[i].Key+".json")); err != nil {
			t.Fatalf("cell %d archive missing: %v", i, err)
		}
	}
	csv1 := readFile(t, first.CSVPath)
	sum1 := readFile(t, first.SummaryPath)

	second := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 1, Resume: true})
	if second.Manifest.Hits != 4 || second.Manifest.Misses != 0 {
		t.Fatalf("warm run recomputed: %+v", second.Manifest)
	}
	if !bytes.Equal(csv1, readFile(t, second.CSVPath)) {
		t.Fatal("aggregate CSV changed between jobs=4 cold and jobs=1 warm")
	}
	if !bytes.Equal(sum1, readFile(t, second.SummaryPath)) {
		t.Fatal("summary changed between invocations")
	}

	// Fresh archive at a different job count: the aggregate must still be
	// byte-identical — parallelism is schedule, not content.
	other := filepath.Join(t.TempDir(), "camp-seq")
	seq := mustExecute(t, spec, ExecOptions{OutDir: other, Jobs: 1, Resume: true})
	if seq.Manifest.Misses != 4 {
		t.Fatalf("independent cold run: %+v", seq.Manifest)
	}
	if !bytes.Equal(csv1, readFile(t, seq.CSVPath)) {
		t.Fatal("aggregate CSV differs between jobs=4 and jobs=1 cold runs")
	}
}

// A torn archive — the half-written file a kill could have left before
// writes were atomic — must be treated as a miss, recomputed, and
// replaced with a whole archive; untouched cells stay hits.
func TestExecuteRecoversFromTornArchive(t *testing.T) {
	spec := testCampaign(t)
	out := filepath.Join(t.TempDir(), "camp")
	first := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 2, Resume: true})
	csv1 := readFile(t, first.CSVPath)

	torn := filepath.Join(out, "runs", first.Runs[2].Key+".json")
	if err := os.WriteFile(torn, []byte(`{"version": 1, "n": 4, "labels": [0,`), 0o644); err != nil {
		t.Fatal(err)
	}
	second := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 2, Resume: true})
	if second.Manifest.Hits != 3 || second.Manifest.Misses != 1 {
		t.Fatalf("torn archive handling: %+v", second.Manifest)
	}
	if second.Manifest.Entries[2].Cache != "miss" {
		t.Fatalf("torn cell not the recomputed one: %+v", second.Manifest.Entries)
	}
	if !bytes.Equal(csv1, readFile(t, second.CSVPath)) {
		t.Fatal("recomputed cell changed the aggregate")
	}
	if _, err := persist.LoadResult(torn); err != nil {
		t.Fatalf("recomputed archive still torn: %v", err)
	}
}

// Resume=false recomputes every cell but must reproduce the same bytes.
func TestExecuteWithoutResumeRecomputes(t *testing.T) {
	spec := testCampaign(t)
	out := filepath.Join(t.TempDir(), "camp")
	first := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 2, Resume: true})
	csv1 := readFile(t, first.CSVPath)
	second := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 2, Resume: false})
	if second.Manifest.Misses != 4 || second.Manifest.Hits != 0 {
		t.Fatalf("resume=false still hit the cache: %+v", second.Manifest)
	}
	if !bytes.Equal(csv1, readFile(t, second.CSVPath)) {
		t.Fatal("recomputation changed the aggregate")
	}
}

// Grid cells that share a key — here a dynamics axis over a scenario
// with no timeline — carry guaranteed-identical content, so the executor
// must compute the key once and resolve the duplicates as deterministic
// cache hits, at any job count.
func TestExecuteDeduplicatesSharedKeys(t *testing.T) {
	spec := NewBuilder("dup").
		Scenario("2x2").
		Iterations(2).
		Scales(0.02).
		Dynamics(0, 1).
		mustSpec()
	out := filepath.Join(t.TempDir(), "camp")
	res := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 4, Resume: true})
	if res.Runs[0].Key != res.Runs[1].Key {
		t.Fatal("fixture no longer produces duplicate keys")
	}
	if res.Manifest.Misses != 1 || res.Manifest.Dups != 1 || res.Manifest.Hits != 0 {
		t.Fatalf("duplicate cell recomputed: %+v", res.Manifest)
	}
	if res.Manifest.Entries[0].Cache != "miss" || res.Manifest.Entries[1].Cache != "dup" {
		t.Fatalf("dedup disposition wrong: %+v", res.Manifest.Entries)
	}
	if res.Docs[0] != res.Docs[1] {
		t.Fatal("duplicate cell did not reuse the primary's document")
	}
	if e := res.Manifest.Entries[1]; e.Index != 1 || e.Config == res.Manifest.Entries[0].Config {
		t.Fatalf("duplicate entry kept the primary's coordinates: %+v", e)
	}
}

func TestExecuteRequiresOutDir(t *testing.T) {
	if _, err := Execute(testCampaign(t), ExecOptions{}); err == nil {
		t.Fatal("missing OutDir accepted")
	}
}

// The manifest must account for every cell exactly once and carry the
// fields the smoke gates grep for.
func TestManifestAccounting(t *testing.T) {
	spec := testCampaign(t)
	out := filepath.Join(t.TempDir(), "camp")
	res := mustExecute(t, spec, ExecOptions{OutDir: out, Jobs: 2, Resume: true})
	m := res.Manifest
	if m.Runs != len(res.Runs) || m.Hits+m.Misses+m.Dups+m.Failures != m.Runs {
		t.Fatalf("manifest does not account for every run: %+v", m)
	}
	data := readFile(t, res.ManifestPath)
	for _, want := range []string{`"campaign": "exec-test"`, `"misses": 4`, `"failures": 0`, `"cache": "miss"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("manifest.json missing %q:\n%s", want, data)
		}
	}
	for i, e := range m.Entries {
		if e.Index != i || e.Status != "done" || e.Key != res.Runs[i].Key {
			t.Fatalf("entry %d inconsistent: %+v", i, e)
		}
		if e.NMI == nil {
			t.Fatalf("entry %d lost its NMI", i)
		}
	}
}

// A ledger that cannot be read when the fleet finalizes costs the
// cumulative manifest its attribution, and the log says so; the
// aggregate is still published.
func TestFinalizeReportsUnreadableLedger(t *testing.T) {
	spec := testCampaign(t)
	out := filepath.Join(t.TempDir(), "camp")
	cold := mustExecute(t, spec, fleetOpts(out, "a"))
	csv := readFile(t, cold.CSVPath)

	// A symlink to itself fails to open with ELOOP — unreadable, not absent.
	idx := filepath.Join(out, "runs", "index.json")
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(idx, idx); err != nil {
		t.Skipf("cannot make the ledger unreadable here: %v", err)
	}
	if err := os.Remove(cold.CSVPath); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	opt := fleetOpts(out, "b")
	opt.Log = &log
	warm := mustExecute(t, spec, opt)
	if !strings.Contains(log.String(), "index read failed") {
		t.Fatalf("the ledger read failure was swallowed; log:\n%s", log.String())
	}
	if !bytes.Equal(csv, readFile(t, warm.CSVPath)) {
		t.Fatal("campaign.csv not republished identically after the ledger read failure")
	}
}
