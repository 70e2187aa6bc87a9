package campaign

import (
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/scenario"
)

// Expansion must be the deterministic cross-product in documented order:
// scenarios outermost, then dynamics, iterations, window, rotate-root,
// seed, scale, workers.
func TestExpandOrderAndCount(t *testing.T) {
	spec := NewBuilder("g").
		Scenario("2x2", "GT").
		Iterations(2, 3).
		Seeds(1, 2).
		MustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("expanded %d runs, want 8", len(runs))
	}
	want := []struct {
		scenario string
		iters    int
		seed     int64
	}{
		{"2x2", 2, 1}, {"2x2", 2, 2}, {"2x2", 3, 1}, {"2x2", 3, 2},
		{"GT", 2, 1}, {"GT", 2, 2}, {"GT", 3, 1}, {"GT", 3, 2},
	}
	for i, w := range want {
		r := runs[i]
		if r.Index != i || r.Scenario != w.scenario || r.Iterations != w.iters || r.Seed != w.seed {
			t.Fatalf("run %d = %s %s, want %+v", i, r.Scenario, r.Config(), w)
		}
		// Unset axes contribute their defaults.
		if r.Window != 0 || r.RotateRoot || r.Scale != 1 || r.DynScale != 1 || r.Workers != 1 {
			t.Fatalf("run %d defaults wrong: %s", i, r.Config())
		}
		if len(r.Key) != 64 {
			t.Fatalf("run %d key %q is not a sha256 hex digest", i, r.Key)
		}
	}
}

// Every result-relevant coordinate must move the key; the execution-only
// workers coordinate must not.
func TestKeysSeparateContentNotPolicy(t *testing.T) {
	spec := NewBuilder("g").
		Scenario("2x2").
		Iterations(2, 3).
		Seeds(1, 2).
		Scales(0.02, 0.04).
		Workers(1, 4).
		MustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byContent := make(map[string]string) // content coordinates -> key
	keys := make(map[string]bool)
	for _, r := range runs {
		content := strings.TrimSuffix(r.Config(), "workers=1")
		content = strings.TrimSuffix(content, "workers=4")
		if prev, ok := byContent[content]; ok {
			if prev != r.Key {
				t.Fatalf("workers moved the key for %s: %s vs %s", content, prev, r.Key)
			}
		} else {
			if keys[r.Key] {
				t.Fatalf("distinct content %s reused a key", content)
			}
			byContent[content] = r.Key
			keys[r.Key] = true
		}
	}
	if len(byContent) != 8 {
		t.Fatalf("%d distinct content cells, want 8", len(byContent))
	}
}

// The dynamics axis scales scalar disturbances (geometric for link-scale,
// linear for bursts), strips the timeline at 0, and keeps binary events
// whenever positive — and each intensity is its own cache key.
func TestExpandScalesDynamics(t *testing.T) {
	drift := scenario.DriftSites(2, 4, 890, 100, 1)
	if err := scenario.Register(drift); err != nil {
		t.Fatal(err)
	}
	var base struct{ scale, burst float64 }
	for _, e := range drift.Dynamics {
		switch e.Kind {
		case dynamics.LinkScale:
			base.scale = e.Param
		case dynamics.Burst:
			base.burst = e.Param
		}
	}
	if base.scale == 0 || base.burst == 0 {
		t.Fatalf("drift fixture lost its scalar events: %+v", base)
	}

	spec := NewBuilder("g").
		Scenario(drift.Name).
		Dynamics(0, 0.5, 1).
		Iterations(12).
		MustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("expanded %d runs, want 3", len(runs))
	}
	if len(runs[0].Spec.Dynamics) != 0 {
		t.Fatal("intensity 0 kept the timeline")
	}
	half := runs[1].Spec
	if len(half.Dynamics) != len(drift.Dynamics) {
		t.Fatalf("intensity 0.5 changed the event count: %d vs %d", len(half.Dynamics), len(drift.Dynamics))
	}
	for _, e := range half.Dynamics {
		switch e.Kind {
		case dynamics.LinkScale:
			want := base.scale // pow(base, 0.5) squared = base
			if got := e.Param * e.Param; got < want*0.999 || got > want*1.001 {
				t.Fatalf("link-scale param %g is not sqrt of %g", e.Param, base.scale)
			}
		case dynamics.Burst:
			if e.Param != base.burst/2 {
				t.Fatalf("burst param %g, want %g", e.Param, base.burst/2)
			}
		}
	}
	if got := runs[2].Spec.Dynamics; len(got) != len(drift.Dynamics) || got[0] != drift.Dynamics[0] {
		t.Fatal("intensity 1 did not replay the timeline as written")
	}
	if runs[0].Key == runs[1].Key || runs[1].Key == runs[2].Key || runs[0].Key == runs[2].Key {
		t.Fatal("dynamics intensities share a cache key")
	}
}

// A grid cell whose dynamics events cannot fire within its iteration
// budget is a sweep bug and must fail at expansion, naming the cell.
func TestExpandRejectsTimelineBeyondIterations(t *testing.T) {
	drift := scenario.DriftSites(2, 4, 890, 100, 1) // events up to iteration >= 8
	name := drift.Name + "-expand-bound"
	drift.Name = name
	if err := scenario.Register(drift); err != nil {
		t.Fatal(err)
	}
	spec := NewBuilder("g").Scenario(name).Iterations(3).MustSpec()
	_, err := spec.Expand()
	if err == nil || !strings.Contains(err.Error(), "never fire") {
		t.Fatalf("error = %v, want the never-fires rejection", err)
	}
	if !strings.Contains(err.Error(), "3 iterations") {
		t.Fatalf("error %q does not name the offending cell", err)
	}
	// The same scenario at a sufficient budget expands, and intensity 0
	// strips the timeline so even the short budget is fine.
	if _, err := NewBuilder("g").Scenario(name).Iterations(12).MustSpec().Expand(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBuilder("g").Scenario(name).Dynamics(0).Iterations(3).MustSpec().Expand(); err != nil {
		t.Fatal(err)
	}
}

func TestExpandUnknownScenario(t *testing.T) {
	_, err := NewBuilder("g").Scenario("no-such-scenario").MustSpec().Expand()
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("error = %v, want unknown-scenario", err)
	}
}

// The per-run options enforce the worker-budget discipline: at least one
// worker always, exactly one when the campaign itself fans out.
func TestRunOptionsWorkerBudget(t *testing.T) {
	r := Run{Iterations: 3, Seed: 2, Scale: 0.02, Workers: 4}
	if got := r.Options(1).Workers; got != 4 {
		t.Fatalf("jobs=1 workers = %d, want the axis value 4", got)
	}
	if got := r.Options(8).Workers; got != 1 {
		t.Fatalf("jobs=8 workers = %d, want 1", got)
	}
	r.Workers = 0
	if got := r.Options(1).Workers; got != 1 {
		t.Fatalf("workers floor = %d, want 1", got)
	}
	opts := r.Options(1)
	if opts.ClusterEvery != 0 {
		t.Fatalf("campaign cells must cluster once: %+v", opts)
	}
	if opts.Iterations != 3 || opts.Seed != 2 {
		t.Fatalf("axis coordinates not applied: %+v", opts)
	}
}
