package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestBackendAxisEntersKeyAndGrid: the backend axis multiplies the grid
// and distinguishes content keys — the same scenario measured by two
// substrates is two different runs, never one cache entry.
func TestBackendAxisEntersKeyAndGrid(t *testing.T) {
	spec := NewBuilder("backends").
		Scenario("2x2").
		Backends("sim", "wire").
		mustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expanded %d runs, want 2 (one per backend)", len(runs))
	}
	if runs[0].Key == runs[1].Key {
		t.Fatalf("backends share content key %s", runs[0].Key)
	}
	for _, r := range runs {
		if !strings.Contains(r.Config(), "backend="+r.Backend) {
			t.Fatalf("Config() %q does not carry backend %q", r.Config(), r.Backend)
		}
	}
}

// TestBackendAxisValidation: unknown backends and backend/dynamics
// conflicts are spec errors, caught before any execution.
func TestBackendAxisValidation(t *testing.T) {
	s := NewBuilder("bad").Scenario("2x2").Backends("sim").mustSpec()
	s.Axes.Backend = []string{"carrier-pigeon"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("unknown backend axis: err = %v", err)
	}
	s.Axes.Backend = []string{"sim", ""}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("\"\" and \"sim\" must collide after canonicalisation: err = %v", err)
	}
}

// TestFailingBackendNeverCorruptsArchive: a campaign whose measurement
// fails — here a payload past the swarm's int32 piece index, which the
// broadcast refuses — must report the failure, and leave the archive
// exactly as it found it: no archive documents, no ledger attributions,
// and a subsequent campaign into the same directory unharmed.
func TestFailingBackendNeverCorruptsArchive(t *testing.T) {
	out := filepath.Join(t.TempDir(), "camp")
	failing := NewBuilder("failing-camp").
		Scenario("2x2").
		Iterations(2).
		Scales(1e6).
		mustSpec()

	res, err := Execute(failing, ExecOptions{OutDir: out, Resume: true})
	if err == nil {
		t.Fatal("campaign over a failing measurement reported success")
	}
	if res == nil || res.Manifest.Failures != 1 {
		t.Fatalf("failures not accounted: %+v", res)
	}
	if cause := res.Manifest.Entries[0].Error; !strings.Contains(cause, "FileBytes") {
		t.Fatalf("failed cell records %q, want the broadcast's FileBytes refusal", cause)
	}

	// No archive document may exist for the failed run.
	if entries, err := os.ReadDir(filepath.Join(out, "runs")); err == nil {
		for _, e := range entries {
			if key, ok := strings.CutSuffix(e.Name(), ".json"); ok && fleet.IsArchiveKey(key) {
				t.Fatalf("failed run left archive document %s", e.Name())
			}
		}
	}
	// And no ledger line may attribute an execution.
	ledger, err := fleet.ReadIndex(filepath.Join(out, "runs", "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) != 0 {
		t.Fatalf("failed run left %d ledger entries", len(ledger))
	}

	// The directory still works as an archive for a healthy campaign.
	good := NewBuilder("failing-camp").
		Scenario("2x2").
		Iterations(2).
		Scales(0.02).
		mustSpec()
	ok, err := Execute(good, ExecOptions{OutDir: out, Resume: true})
	if err != nil {
		t.Fatalf("archive unusable after failed campaign: %v", err)
	}
	if ok.Manifest.Misses != 1 || ok.Manifest.Failures != 0 {
		t.Fatalf("healthy follow-up: %+v", ok.Manifest)
	}
}
