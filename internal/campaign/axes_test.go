package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// gridDigest is the SHA-256 of one "index scenario config key" line per
// expanded cell: the whole expansion — order, defaults, Config() text and
// content keys — in one value.
func gridDigest(t *testing.T, s *Spec) (string, int) {
	t.Helper()
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%d %s %s %s\n", r.Index, r.Scenario, r.Config(), r.Key)
	}
	return hex.EncodeToString(h.Sum(nil)), len(runs)
}

// TestGridExpansionIsPinned pins the expansion of a grid that sweeps all
// nine axes with two values each, and of the drift fixture over
// dynamics × iterations (the scaled timelines and their budget checks).
// A moved digest means a moved cell order, Config() string or content
// key.
func TestGridExpansionIsPinned(t *testing.T) {
	cases := []struct {
		name  string
		spec  *Spec
		cells int
		want  string
	}{
		{"nine axes", NewBuilder("pin").
			Scenario("2x2", "GT").
			Dynamics(0, 1).
			Iterations(2, 3).
			Window(0, 2).
			RotateRoot(false, true).
			Seeds(1, 2).
			Scales(0.02, 0.04).
			TopFractions(0, 0.5).
			Backends("sim", "wire").
			Workers(1, 2).
			mustSpec(), 1024, "5bffa27c673a96a392e4a0c2145611fa59b2d539120fe2594b18b2c21d43422c"},
		{"drift", NewBuilder("pin-drift").
			ScenarioFile("../../testdata/specs/drift.json").
			Dynamics(0, 0.5, 1).
			Iterations(6, 8).
			mustSpec(), 6, "e2bf9d75b39c90608df4471ce616880ed5fb01e10fed620f79db3f0fc27f3700"},
	}
	for _, c := range cases {
		got, n := gridDigest(t, c.spec)
		if n != c.cells || got != c.want {
			t.Errorf("%s: %d cells, digest %s; want %d cells, digest %s", c.name, n, got, c.cells, c.want)
		}
	}
}

// TestConfigAxesCoverAxes: every swept axis of the JSON format has
// exactly one ConfigAxes row, in the same order, and the aggregate's
// columns are the table's names — so an axis added to one place and not
// the others fails here.
func TestConfigAxesCoverAxes(t *testing.T) {
	var tags []string
	at := reflect.TypeFor[Axes]()
	for i := range at.NumField() {
		tag, _, _ := strings.Cut(at.Field(i).Tag.Get("json"), ",")
		tags = append(tags, tag)
	}
	var names []string
	for _, a := range ConfigAxes {
		names = append(names, a.Name)
	}
	if !slices.Equal(tags, names) {
		t.Fatalf("Axes JSON fields %v, ConfigAxes names %v", tags, names)
	}
	want := append(append([]string{"run", "scenario"}, names...), "clusters", "q", "nmi", "sim_seconds", "key")
	if got := aggregate("g", nil, nil).Header; !slices.Equal(got, want) {
		t.Fatalf("aggregate header %v, want %v", got, want)
	}
}
