package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecCompile feeds Decode whatever a hand-written spec file can hold.
// Decode and Compile must never panic, a spec Decode accepts must compile,
// and the compiled dataset has exactly the spec's NumHosts hosts, each
// with a ground-truth label. The seeds are the spec files under
// testdata/specs and the six built-in specs, encoded.
func FuzzSpecCompile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed spec files: %v", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range BuiltinSpecs() {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		d, err := s.Compile()
		if err != nil {
			t.Fatalf("Decode accepted a spec Compile rejects: %v\n%s", err, data)
		}
		if d.N() != s.NumHosts() || len(d.GroundTruth) != d.N() {
			t.Fatalf("compiled %d hosts with %d truth labels, spec declares %d\n%s",
				d.N(), len(d.GroundTruth), s.NumHosts(), data)
		}
	})
}
