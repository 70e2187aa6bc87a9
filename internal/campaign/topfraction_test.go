package campaign

import (
	"strings"
	"testing"
)

// The top_fraction axis is result-relevant: it must reach the measurement
// options, render in Config and the aggregate, and move the content key.
func TestTopFractionAxisIsResultRelevant(t *testing.T) {
	spec := NewBuilder("tf").
		Scenario("2x2").
		Iterations(2).
		TopFractions(0, 0.5).
		mustSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(runs))
	}
	if runs[0].TopFraction != 0 || runs[1].TopFraction != 0.5 {
		t.Fatalf("axis order wrong: %g, %g", runs[0].TopFraction, runs[1].TopFraction)
	}
	if runs[0].Key == runs[1].Key {
		t.Fatal("top_fraction did not move the content key")
	}
	if opts := runs[1].Options(1); opts.TopFraction != 0.5 {
		t.Fatalf("Options dropped TopFraction: %+v", opts)
	}
	if err := runs[1].Options(1).Validate(); err != nil {
		t.Fatalf("expanded cell options invalid: %v", err)
	}
	if !strings.Contains(runs[1].Config(), "top=0.5") {
		t.Fatalf("Config misses the coordinate: %s", runs[1].Config())
	}
	// The default (no axis) is the paper's setting: keep every edge.
	def, err := NewBuilder("d").Scenario("2x2").mustSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if def[0].TopFraction != 0 {
		t.Fatalf("default top_fraction = %g, want 0", def[0].TopFraction)
	}
}

// 0 and 1 both disable the edge filter — the same measurement — so they
// canonicalise to one content key (and fold as in-grid dups), just as
// scale enters the key as its resolved payload.
func TestTopFractionZeroAndOneShareAKey(t *testing.T) {
	runs, err := NewBuilder("tf01").
		Scenario("2x2").
		Iterations(2).
		TopFractions(0, 1).
		mustSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("expanded %d runs, want 2", len(runs))
	}
	if runs[0].Key != runs[1].Key {
		t.Fatal("top_fraction 0 and 1 are the same measurement but got distinct keys")
	}
	if def, _ := NewBuilder("d").Scenario("2x2").Iterations(2).mustSpec().Expand(); def[0].Key != runs[0].Key {
		t.Fatal("canonicalised key differs from the default (keep-all) key")
	}
}

// Axis validation mirrors core.Options.Validate: values outside [0,1]
// (which Validate rejects at run time) and duplicates fail at spec time.
func TestTopFractionAxisValidation(t *testing.T) {
	for _, vals := range [][]float64{{-0.1}, {1.5}, {0.5, 0.5}} {
		b := NewBuilder("bad").Scenario("2x2").TopFractions(vals...)
		if err := b.Err(); err == nil {
			t.Fatalf("top_fraction axis %v accepted", vals)
		} else if !strings.Contains(err.Error(), "top_fraction") {
			t.Fatalf("error %q does not name the axis", err)
		}
	}
	if err := NewBuilder("ok").Scenario("2x2").TopFractions(0, 0.25, 1).Err(); err != nil {
		t.Fatalf("valid axis rejected: %v", err)
	}
}
