package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
)

// parityOptions keeps identity checks fast: a small payload suffices —
// identity is structural, not a convergence property.
func parityOptions(iters int) core.Options {
	opts := core.DefaultOptions()
	opts.Iterations = iters
	opts.BT.FileBytes = 300 * opts.BT.FragmentSize
	return opts
}

// legacyDigests freezes what the hand-wired Go constructors of the six
// paper datasets (topology.TwoByTwo .. BGTL) measured under
// parityOptions(3). The constructors were deleted once the specs were
// proven to measure bit-identically to them; the record keeps that proof
// running. A deliberate simulator or protocol change repins it; an edit
// to a builtin spec, the compiler or host ordering must not move it.
var legacyDigests = map[string]string{
	"2x2":  "d561205886ad78c4f333295ce13a73ecae75d7a6eda5272fb8c4bde46095d36f",
	"B":    "ac539f8857c2dd70a84c1d509fdf1f1785da97d4cb95d400fbd98b5b40248468",
	"BT":   "0e77664f709d70eae457f6cf22d9ba570b26656f6592c294ab9758d0fa82ae02",
	"GT":   "fc7c5eed91edddc328b0e4aafdb5533ee453acf8e27eba4989aea8ac6def8a84",
	"BGT":  "86d431663b740cf5cbd3e5b4c0a56ca9dc859adceada5d2b9cd979acda09ebdf",
	"BGTL": "37800dca9e3b94e5a1d5e1c268abe4109feccac7c4a489d7e6aac001919e1935",
}

// resultDigest hashes everything assertSameResult compares, bit-exactly.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	for _, e := range r.Graph.Edges() {
		fmt.Fprintf(h, "%d %d %x\n", e.U, e.V, math.Float64bits(e.Weight))
	}
	fmt.Fprintf(h, "%v %x %x %x\n", r.Partition.Labels,
		math.Float64bits(r.Q), math.Float64bits(r.NMI), math.Float64bits(r.TotalMeasurementTime))
	return hex.EncodeToString(h.Sum(nil))
}

func TestBuiltinSpecsMeasureBitIdenticallyToLegacy(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64; architectures that fuse multiply-adds round differently")
	}
	for _, spec := range BuiltinSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			d, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunDataset(d, parityOptions(3))
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != legacyDigests[spec.Name] {
				t.Fatalf("measurement digest %s, legacy constructor measured %s", got, legacyDigests[spec.Name])
			}
		})
	}
}

// assertSameResult compares two results bit-exactly: graph, partition,
// modularity, NMI and measurement time.
func assertSameResult(t *testing.T, got, want *core.Result) {
	t.Helper()
	if got.Graph.N() != want.Graph.N() {
		t.Fatalf("graph has %d vertices, want %d", got.Graph.N(), want.Graph.N())
	}
	ge, we := got.Graph.Edges(), want.Graph.Edges()
	if len(ge) != len(we) {
		t.Fatalf("graph has %d edges, want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ge[i], we[i])
		}
	}
	if len(got.Partition.Labels) != len(want.Partition.Labels) {
		t.Fatalf("partition sizes differ: %d vs %d", len(got.Partition.Labels), len(want.Partition.Labels))
	}
	for i := range got.Partition.Labels {
		if got.Partition.Labels[i] != want.Partition.Labels[i] {
			t.Fatalf("partition label %d differs: %d vs %d", i, got.Partition.Labels[i], want.Partition.Labels[i])
		}
	}
	if got.Q != want.Q {
		t.Fatalf("Q differs: %v vs %v", got.Q, want.Q)
	}
	if got.NMI != want.NMI && !(math.IsNaN(got.NMI) && math.IsNaN(want.NMI)) {
		t.Fatalf("NMI differs: %v vs %v", got.NMI, want.NMI)
	}
	if got.TotalMeasurementTime != want.TotalMeasurementTime {
		t.Fatalf("TotalMeasurementTime differs: %v vs %v", got.TotalMeasurementTime, want.TotalMeasurementTime)
	}
}

// The registry must contain every built-in and present names in sorted
// order — deterministic output for `bttomo -list`, docs and CI
// transcripts regardless of registration timing.
func TestRegistrySortedAndSeeded(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry names not sorted: %v", names)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, builtin := range BuiltinSpecs() {
		if !have[builtin.Name] {
			t.Fatalf("registry %v is missing built-in %q", names, builtin.Name)
		}
	}
	// Registration keeps the order sorted (the new name lands in its
	// lexicographic slot, not at the end).
	s := NSites(2, 2, 890, 100)
	s.Name = "0-sorted-probe"
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	names = Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry names not sorted after Register: %v", names)
	}
	if names[0] != "0-sorted-probe" {
		t.Fatalf("new name not in lexicographic position: %v", names)
	}
}
