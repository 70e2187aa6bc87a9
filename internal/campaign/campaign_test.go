package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/scenario"
)

func gridBuilder() *Builder {
	return NewBuilder("grid").
		Note("test campaign").
		Scenario("2x2", "GT").
		Iterations(2, 3).
		Seeds(1, 2).
		Scales(0.02)
}

// mustSpec is Spec for the statically-known campaigns of these tests; it
// panics on validation failure.
func (b *Builder) mustSpec() *Spec {
	s, err := b.Spec()
	if err != nil {
		panic(fmt.Sprintf("campaign: invalid spec: %v", err))
	}
	return s
}

// encode renders a campaign spec as the indented JSON of a campaign file.
func encode(t *testing.T, s *Spec) []byte {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := gridBuilder().Window(0, 2).RotateRoot(false, true).Dynamics(0, 1).Workers(1, 2).mustSpec()
	back, err := Decode(encode(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("campaign spec changed in round trip:\n%+v\n%+v", spec, back)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"name": "g", "scenarios": [{"name": "GT"}], "axes": {"iteration": [3]}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("typo'd axis accepted: %v", err)
	}
}

// A campaign file holds one campaign: a valid spec followed by junk or by
// a second spec is refused, not read as its first object. Trailing white
// space is accepted.
func TestDecodeRejectsTrailingData(t *testing.T) {
	data := encode(t, gridBuilder().mustSpec())
	if _, err := Decode(append(data, " \n"...)); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
	for _, tail := range []string{"x", "\n" + string(data)} {
		if _, err := Decode(append(slices.Clip(data), tail...)); err == nil {
			t.Errorf("campaign followed by %q accepted", tail)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"no name", &Spec{Scenarios: []ScenarioRef{{Name: "GT"}}}, "needs a name"},
		{"no scenarios", &Spec{Name: "g"}, "at least one scenario"},
		{"both ref fields", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT", File: "x.json"}}}, "exactly one"},
		{"empty ref", &Spec{Name: "g", Scenarios: []ScenarioRef{{}}}, "exactly one"},
		{"bad iterations", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Iterations: []int{0}}}, "iterations axis value 0"},
		{"dup iterations", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Iterations: []int{3, 3}}}, "duplicate iterations"},
		{"negative window", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Window: []int{-1}}}, "window axis value -1"},
		{"bad workers", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Workers: []int{0}}}, "workers axis value 0"},
		{"dup seed", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Seed: []int64{7, 7}}}, "duplicate seed"},
		{"bad scale", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Scale: []float64{0}}}, "scale axis value 0"},
		{"negative dynamics", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Dynamics: []float64{-0.5}}}, "dynamics axis value -0.5"},
		{"dup rotate", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{RotateRoot: []bool{true, true}}}, "duplicate rotate_root"},
		{"NaN scale", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Scale: []float64{math.NaN()}}}, "scale axis value NaN"},
		{"Inf scale", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Scale: []float64{math.Inf(1)}}}, "scale axis value +Inf"},
		{"NaN top_fraction", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{TopFraction: []float64{math.NaN()}}}, "top_fraction axis value NaN"},
		{"Inf top_fraction", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{TopFraction: []float64{math.Inf(1)}}}, "top_fraction axis value +Inf"},
		{"NaN dynamics", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Dynamics: []float64{math.NaN()}}}, "dynamics axis value NaN"},
		{"Inf dynamics", &Spec{Name: "g", Scenarios: []ScenarioRef{{Name: "GT"}},
			Axes: Axes{Dynamics: []float64{math.Inf(1)}}}, "dynamics axis value +Inf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

func TestLoadResolvesScenarioFilesRelatively(t *testing.T) {
	dir := t.TempDir()
	if err := persist.SaveSpec(filepath.Join(dir, "specs", "tiny.json"), scenario.NSites(2, 3, 890, 100)); err != nil {
		t.Fatal(err)
	}
	camPath := filepath.Join(dir, "campaigns", "c.json")
	cam := NewBuilder("c").ScenarioFile("../specs/tiny.json").Iterations(2).mustSpec()
	data := encode(t, cam)
	if err := persist.WriteAtomic(camPath, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(camPath)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := loaded.Expand()
	if err != nil {
		t.Fatalf("relative scenario file did not resolve against the campaign dir: %v", err)
	}
	if len(runs) != 1 || runs[0].Spec.NumHosts() != 6 {
		t.Fatalf("unexpected expansion: %+v", runs)
	}
}

func TestBuilderSpecIsACopy(t *testing.T) {
	b := gridBuilder()
	first := b.mustSpec()
	b.Seeds(99)
	if len(first.Axes.Seed) != 2 {
		t.Fatal("builder mutation aliased a finalised spec")
	}
}
