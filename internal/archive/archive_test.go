package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/scenario"
)

// testCampaign is the same cheap four-cell grid the executor's own tests
// use: two scenarios x two seeds at a tiny payload.
func testCampaign(t *testing.T) *campaign.Spec {
	t.Helper()
	specPath := filepath.Join(t.TempDir(), "tiny.json")
	if err := persist.SaveSpec(specPath, scenario.NSites(2, 3, 890, 100)); err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.NewBuilder("archive-test").
		Scenario("2x2").
		ScenarioFile(specPath).
		Iterations(2).
		Seeds(1, 2).
		Scales(0.02).
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// writtenArchive executes the test campaign into a fresh directory and
// returns the directory, the outcome and an open Store over it.
func writtenArchive(t *testing.T) (string, *campaign.Outcome, *Store) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "camp")
	out, err := campaign.Execute(testCampaign(t), campaign.ExecOptions{OutDir: dir, Jobs: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, out, st
}

func TestOpenRequiresDirectory(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Open accepted a missing directory")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Fatal("Open accepted a plain file")
	}
}

// Runs must list every executed cell exactly once, in ledger order, with
// the ledger's attribution and the on-disk archive's presence fused.
func TestRunsListsLedgerAndDisk(t *testing.T) {
	dir, out, st := writtenArchive(t)

	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("want 4 runs, got %d: %+v", len(runs), runs)
	}
	keys := make(map[string]bool)
	for _, r := range runs {
		if !r.Archived || r.Bytes == 0 {
			t.Fatalf("run %s not seen as archived: %+v", r.Key, r)
		}
		if r.Owner == "" || r.Run < 0 {
			t.Fatalf("run %s lost its ledger attribution: %+v", r.Key, r)
		}
		if keys[r.Key] {
			t.Fatalf("run %s listed twice", r.Key)
		}
		keys[r.Key] = true
	}
	for _, run := range out.Runs {
		if !keys[run.Key] {
			t.Fatalf("expanded cell %s missing from listing", run.Key)
		}
	}

	// An archive with no ledger line (written before the ledger existed,
	// or whose line was lost) must still appear, attributed to no one.
	orphan := strings.Repeat("ab", 32)
	if err := os.Rename(filepath.Join(dir, "runs", out.Runs[0].Key+".json"),
		filepath.Join(dir, "runs", orphan+".json")); err != nil {
		t.Fatal(err)
	}
	runs, err = st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var sawOrphan, sawGhost bool
	for _, r := range runs {
		if r.Key == orphan {
			sawOrphan = true
			if !r.Archived || r.Run != -1 || r.Owner != "" {
				t.Fatalf("scan-only run misreported: %+v", r)
			}
		}
		if r.Key == out.Runs[0].Key {
			sawGhost = true
			if r.Archived {
				t.Fatalf("renamed-away archive still reported on disk: %+v", r)
			}
		}
	}
	if !sawOrphan || !sawGhost {
		t.Fatalf("listing lost the orphan (%v) or the ledgered-but-gone run (%v)", sawOrphan, sawGhost)
	}
}

func TestGetReturnsDocumentAndRejectsBadKeys(t *testing.T) {
	_, out, st := writtenArchive(t)

	d, err := st.Get(out.Runs[1].Key)
	if err != nil {
		t.Fatal(err)
	}
	if d.Doc == nil || !d.Archived || d.Run != 1 {
		t.Fatalf("detail incomplete: %+v", d)
	}
	if d.Doc.N == 0 {
		t.Fatal("document decoded empty")
	}

	if _, err := st.Get("../../etc/passwd"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("traversal key not rejected: %v", err)
	}
	unknown := strings.Repeat("00", 32)
	if _, err := st.Get(unknown); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unknown key: want ErrNotExist, got %v", err)
	}
}

// The stamp is the poller's change detector: stable across pure reads,
// changed by a ledger append.
func TestStampTracksLedger(t *testing.T) {
	dir, _, st := writtenArchive(t)
	s1 := st.Stamp()
	if s2 := st.Stamp(); s2 != s1 {
		t.Fatalf("stamp unstable without writes: %q vs %q", s1, s2)
	}
	if _, err := st.Runs(); err != nil {
		t.Fatal(err)
	}
	if s2 := st.Stamp(); s2 != s1 {
		t.Fatal("reading the archive changed its stamp")
	}
	if err := fleet.AppendIndex(filepath.Join(dir, "runs", "index.json"),
		fleet.IndexEntry{Key: strings.Repeat("cd", 32), Run: 9}); err != nil {
		t.Fatal(err)
	}
	if s2 := st.Stamp(); s2 == s1 {
		t.Fatal("ledger append did not change the stamp")
	}
}

// stampReference is Stamp() as first written, with fmt. Clients hold
// ETags spelled this way, so Stamp() must spell the same facts the same
// bytes.
func stampReference(dir campaign.Dir) string {
	part := func(path string) string {
		fi, err := os.Stat(path)
		if err != nil {
			return "-"
		}
		return fmt.Sprintf("%d.%d", fi.Size(), fi.ModTime().UnixNano())
	}
	return fmt.Sprintf("%s;%s;%s;%s",
		part(dir.Index()), part(dir.Log()), part(dir.Manifest()), part(dir.CSV()))
}

// Stamp() equals the reference byte for byte with all four files
// missing, some present, and all present, empty files and an mtime
// before 1970 (a negative UnixNano) included.
func TestStampIsTheReferenceSpelling(t *testing.T) {
	dir := campaign.Dir(t.TempDir())
	st, err := Open(string(dir))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if got, want := st.Stamp(), stampReference(dir); got != want {
			t.Fatalf("%s: Stamp() %q, the reference %q", step, got, want)
		}
	}
	if got := st.Stamp(); got != "-;-;-;-" {
		t.Fatalf("an empty directory's Stamp() is %q, want -;-;-;-", got)
	}
	check("all missing")
	appendBytes(t, dir.Log(), logLine(0, syntheticKey(0), "done", 0.5))
	check("the log alone")
	appendBytes(t, dir.Index(), "")
	check("an empty ledger and the log")
	publish(t, dir.Manifest(), manifestDoc("grid", 1, ""))
	publish(t, dir.CSV(), "index,key\n")
	check("all present")
	past := time.Date(1955, 11, 5, 6, 15, 0, 123456789, time.UTC)
	if err := os.Chtimes(dir.CSV(), past, past); err != nil {
		t.Fatal(err)
	}
	check("an aggregate dated before 1970")
	if err := os.Remove(dir.Manifest()); err != nil {
		t.Fatal(err)
	}
	check("the manifest removed")
}

// Status must report exactly-once counts even when the ledger carries
// duplicate post-crash re-executions, and fuse in manifests and leases.
// A one-worker fleet exercises the full layout: per-owner manifest,
// cumulative manifest.json and the finalized aggregate.
func TestStatusFusesLedgerLeasesManifests(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := campaign.Execute(testCampaign(t), campaign.ExecOptions{
		OutDir: dir, Jobs: 2, Resume: true, Fleet: true, Owner: "w1",
	}); err != nil {
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

	// Duplicate one ledger line — an idempotent re-execution after a
	// crash. Executed must not move; LedgerLines must.
	idx := filepath.Join(dir, "runs", "index.json")
	if err := fleet.AppendIndex(idx, fleet.IndexEntry{
		Key: runs[0].Key, Run: 0, Owner: "other", WallSeconds: 1,
	}); err != nil {
		t.Fatal(err)
	}

	status, err := st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Executed != 4 || status.Archived != 4 || status.LedgerLines != 5 {
		t.Fatalf("counts wrong: %+v", status)
	}
	if !status.Finalized || status.Campaign != "archive-test" || status.GridRuns != 4 {
		t.Fatalf("finalized view wrong: %+v", status)
	}
	var w1 *OwnerStatus
	for i := range status.Owners {
		if status.Owners[i].Owner == "w1" {
			w1 = &status.Owners[i]
		}
	}
	if w1 == nil {
		t.Fatalf("worker w1 missing from owners: %+v", status.Owners)
	}
	if w1.Executed != 4 || w1.Manifest == nil || w1.Manifest.Misses != 4 || w1.Manifest.Failures != 0 {
		t.Fatalf("owner view wrong: %+v, manifest %+v", w1, w1.Manifest)
	}

	// A live lease shows as in-flight; its holder appears among owners.
	tr, err := fleet.New(filepath.Join(dir, "leases"), "peer", fleet.DefaultTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	leasedKey := strings.Repeat("ef", 32)
	if ok, _, err := tr.Claim(leasedKey); err != nil || !ok {
		t.Fatalf("claim failed: %v %v", ok, err)
	}
	status, err = st.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.InFlight != 1 || status.StaleLeases != 0 || len(status.Leases) != 1 {
		t.Fatalf("lease view wrong: %+v", status)
	}
	if l := status.Leases[0]; l.Key != leasedKey || l.Owner != "peer" || l.Stale {
		t.Fatalf("lease misread: %+v", l)
	}
}

func TestMarginalsCollapseAxes(t *testing.T) {
	_, _, st := writtenArchive(t)

	m, err := st.Marginals("seed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Axis != "seed" || m.Cells != 4 || len(m.Points) != 2 {
		t.Fatalf("seed marginal wrong: %+v", m)
	}
	for _, p := range m.Points {
		if p.Runs != 2 {
			t.Fatalf("seed point %q aggregates %d runs, want 2", p.Value, p.Runs)
		}
		if p.MeanNMI == nil || p.NMICells != 2 {
			t.Fatalf("seed point %q lost NMI: %+v", p.Value, p)
		}
	}
	if m.Points[0].Value != "1" || m.Points[1].Value != "2" {
		t.Fatalf("numeric sort wrong: %+v", m.Points)
	}

	// "intensity" is the operational alias for the dynamics axis.
	m, err = st.Marginals("intensity")
	if err != nil {
		t.Fatal(err)
	}
	if m.Axis != "dynamics" || m.Cells != 4 || len(m.Points) != 1 {
		t.Fatalf("intensity marginal wrong: %+v", m)
	}

	m, err = st.Marginals("scenario")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 2 {
		t.Fatalf("scenario marginal wrong: %+v", m)
	}

	if _, err := st.Marginals("flavour"); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

// A warm re-invocation re-appends every cell to manifest.log; marginals
// must dedup by cell, not count log lines.
func TestMarginalsDeduplicateWarmReinvocations(t *testing.T) {
	dir, _, st := writtenArchive(t)
	if _, err := campaign.Execute(testCampaign(t), campaign.ExecOptions{OutDir: dir, Jobs: 1, Resume: true}); err != nil {
		t.Fatal(err)
	}
	m, err := st.Marginals("seed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells != 4 {
		t.Fatalf("warm re-invocation double-counted: %d cells", m.Cells)
	}
}

// The backend axis is swept and key-relevant like any other: a manifest
// whose cells ran on two backends yields a two-point backend marginal
// (it answered ErrUnknownAxis before the axis table was shared).
func TestMarginalsBackendAxis(t *testing.T) {
	dir := t.TempDir()
	for i, backend := range []string{"sim", "wire", "sim"} {
		run := campaign.Run{Index: i, Scenario: "2x2", Iterations: 3, Seed: int64(i), Scale: 1, Backend: backend, Workers: 1}
		err := campaign.Record(campaign.Dir(dir), campaign.Entry{
			Index: i, Scenario: run.Scenario, Config: run.Config(), Backend: backend,
			Key: fmt.Sprintf("%064x", i), Status: "done", Cache: "hit", Q: float64(i * i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Marginals("backend")
	if err != nil {
		t.Fatal(err)
	}
	if m.Axis != "backend" || m.Cells != 3 || len(m.Points) != 2 {
		t.Fatalf("backend marginal wrong: %+v", m)
	}
	if p := m.Points[0]; p.Value != "sim" || p.Runs != 2 || p.MeanQ != 2 {
		t.Fatalf("sim point wrong: %+v", p)
	}
	if p := m.Points[1]; p.Value != "wire" || p.Runs != 1 || p.MeanQ != 1 {
		t.Fatalf("wire point wrong: %+v", p)
	}
}

// Every key an expanded run's Config() renders must resolve as a
// marginal axis — by its short key and by the canonical name it maps to
// — and find that cell's value, so an option axis can never again reach
// the manifest without reaching the queries.
func TestEveryConfigKeyIsAMarginalAxis(t *testing.T) {
	_, out, st := writtenArchive(t)
	fields := strings.Fields(out.Runs[0].Config())
	canonical := make(map[string]bool)
	for _, axis := range MarginalAxes() {
		canonical[axis] = true
	}
	for _, field := range fields {
		key, _, ok := strings.Cut(field, "=")
		if !ok {
			t.Fatalf("Config() field %q is not key=value", field)
		}
		m, err := st.Marginals(key)
		if err != nil {
			t.Errorf("Config key %q is not a marginal axis: %v", key, err)
			continue
		}
		if !canonical[m.Axis] {
			t.Errorf("Config key %q resolved to %q, which MarginalAxes() does not list", key, m.Axis)
		}
		runs := 0
		for _, p := range m.Points {
			runs += p.Runs
		}
		if runs != m.Cells || m.Cells != len(out.Runs) {
			t.Errorf("axis %q: %d of %d cells carry a value (grid %d)", m.Axis, runs, m.Cells, len(out.Runs))
		}
	}
}

func TestDiffSelfIsClean(t *testing.T) {
	dir, _, st := writtenArchive(t)
	rep, err := st.Diff(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Common != 4 || rep.RegressionCount != 0 || rep.OnlyHere != 0 || rep.OnlyBase != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}
}

func TestDiffDetectsDivergenceAndCoverage(t *testing.T) {
	dir, out, st := writtenArchive(t)

	// Build the baseline as a byte-copy, then perturb one document's Q
	// and delete another — a behavioural regression plus a coverage gap.
	base := filepath.Join(t.TempDir(), "base")
	if err := os.MkdirAll(filepath.Join(base, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Runs {
		data, err := os.ReadFile(filepath.Join(dir, "runs", r.Key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(base, "runs", r.Key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tampered := out.Runs[2].Key
	path := filepath.Join(base, "runs", tampered+".json")
	var doc map[string]any
	if err := json.Unmarshal(mustRead(t, path), &doc); err != nil {
		t.Fatal(err)
	}
	doc["q"] = doc["q"].(float64) + 0.25
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := out.Runs[3].Key
	if missing == tampered {
		t.Fatal("fixture overlap")
	}
	if err := os.Remove(filepath.Join(base, "runs", missing+".json")); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Diff(base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Common != 3 || rep.OnlyHere != 1 || rep.OnlyBase != 0 {
		t.Fatalf("coverage wrong: %+v", rep)
	}
	if rep.OnlyHereKeys[0] != missing {
		t.Fatalf("missing key misattributed: %+v", rep.OnlyHereKeys)
	}
	if rep.RegressionCount != 1 || rep.Regressions[0].Key != tampered || rep.Regressions[0].Field != "q" {
		t.Fatalf("regression not diagnosed: %+v", rep.Regressions)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
