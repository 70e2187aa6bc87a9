package repro

import (
	"sort"
	"testing"
)

func smallOptions(iters int) Options {
	opts := DefaultOptions()
	opts.Iterations = iters
	opts.BT.FileBytes = 1000 * opts.BT.FragmentSize
	return opts
}

// runDataset runs tomography on a freshly built registered dataset.
func runDataset(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	d, err := NewDataset(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDatasetsList(t *testing.T) {
	// The registry is extensible (RegisterSpec); names come back sorted,
	// so CLI listings and docs stay stable no matter when a spec was
	// registered.
	names := Datasets()
	if len(names) < 6 {
		t.Fatalf("Datasets() = %v, want at least the 6 built-ins", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Datasets() = %v, want sorted names", names)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range []string{"2x2", "B", "BT", "GT", "BGT", "BGTL"} {
		if !have[w] {
			t.Fatalf("Datasets() = %v, missing built-in %q", names, w)
		}
	}
	// The returned slice is a copy; mutating it must not corrupt the
	// registry order.
	names[0] = "corrupted"
	if Datasets()[0] == "corrupted" {
		t.Fatal("Datasets() exposes internal state")
	}
}

func TestNewDatasetUnknown(t *testing.T) {
	if _, err := NewDataset("atlantis"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunTwoByTwo(t *testing.T) {
	res := runDataset(t, "2x2", smallOptions(4))
	if res.Partition.NumClusters() != 1 {
		t.Fatalf("2x2 clusters = %d, want 1", res.Partition.NumClusters())
	}
	if res.NMI < 0.99 {
		t.Fatalf("2x2 NMI = %.3f, want 1", res.NMI)
	}
}

func TestRunFreshDatasetTwice(t *testing.T) {
	// Each NewDataset carries its own simulator; two runs are identical.
	a := runDataset(t, "2x2", smallOptions(2))
	b := runDataset(t, "2x2", smallOptions(2))
	if a.Q != b.Q || a.TotalMeasurementTime != b.TotalMeasurementTime {
		t.Fatal("identical runs diverged")
	}
}

func TestDefaultOptionsArePaperScale(t *testing.T) {
	opts := DefaultOptions()
	if opts.BT.NumFragments() != 15259 {
		t.Fatalf("default fragments = %d, want 15259 (239 MB / 16 KiB)", opts.BT.NumFragments())
	}
	if opts.Iterations != 30 {
		t.Fatalf("default iterations = %d, want 30", opts.Iterations)
	}
}

func TestFacadeBottlenecks(t *testing.T) {
	res := runDataset(t, "2x2", smallOptions(4))
	// 2x2 finds a single cluster: no bottlenecks.
	if bs := Bottlenecks(res); len(bs) != 0 {
		t.Fatalf("2x2 reported %d bottlenecks, want 0", len(bs))
	}
}

func TestFacadeCollectiveScheduling(t *testing.T) {
	d, err := NewDataset("2x2")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BroadcastBinomial([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteBroadcast(d, sched, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 || res.Transfers != 3 {
		t.Fatalf("unexpected broadcast result %+v", res)
	}
	aware, err := BroadcastClusterAware([][]int{{0, 1}, {2, 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteBroadcast(d, aware, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
}

// The whole declarative loop through the public API: build a spec
// fluently, archive it as JSON, load it back, register it, and run it —
// with parallel measurement — both via RunSpec and via its registry name.
func TestSpecEndToEnd(t *testing.T) {
	spec, err := NewSpec("e2e-twin").
		Note("two flat sites").
		Link("eth", 890, 50e-6).
		Link("wan", 50, 4e-3).
		Switch("core").
		FlatSite("left", "core", 4, "eth", "wan").
		FlatSite("right", "core", 4, "eth", "wan").
		Spec()
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/twin.json"
	if err := SaveSpec(path, spec); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}

	opts := smallOptions(4)
	// Small sites need more per-edge signal than the built-in runs.
	opts.BT.FileBytes = 3000 * opts.BT.FragmentSize
	opts.Workers = 2 // parallel measurement straight from a file-loaded spec
	res, err := RunSpec(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.NumClusters() != 2 || res.NMI < 0.999 {
		t.Fatalf("spec run found %d clusters at NMI %.3f, want 2 at 1.0",
			res.Partition.NumClusters(), res.NMI)
	}

	if err := RegisterSpec(loaded); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range Datasets() {
		if name == "e2e-twin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered spec missing from Datasets() = %v", Datasets())
	}
	viaName := runDataset(t, "e2e-twin", opts)
	if viaName.NMI != res.NMI || viaName.Q != res.Q {
		t.Fatalf("registry run diverged from direct run: NMI %v vs %v, Q %v vs %v",
			viaName.NMI, res.NMI, viaName.Q, res.Q)
	}
	if err := RegisterSpec(loaded); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// The committed spec fixture (also exercised by `make spec-smoke` and the
// CI workflow through `bttomo -spec`) must stay loadable and true to its
// declared shape.
func TestSpecFixtureLoads(t *testing.T) {
	spec, err := LoadSpec("testdata/specs/twin.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "twin" || spec.NumHosts() != 8 || len(spec.Clusters()) != 2 {
		t.Fatalf("fixture = %s with %d hosts, %d clusters; want twin/8/2",
			spec.Name, spec.NumHosts(), len(spec.Clusters()))
	}
	if _, err := spec.Compile(); err != nil {
		t.Fatal(err)
	}
}

// The generator re-exports must produce runnable specs.
func TestGeneratorSpecsCompileAndRun(t *testing.T) {
	for _, spec := range []*Spec{
		SkewedSitesSpec(2, 3, 890, 200, 0.5),
	} {
		d, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if _, err := Run(d, smallOptions(2)); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

func TestWithWorkersRunsIdenticallyToSingleWorker(t *testing.T) {
	par := runDataset(t, "2x2", smallOptions(3).WithWorkers(4))
	one := runDataset(t, "2x2", smallOptions(3).WithWorkers(1))
	if par.NMI != one.NMI || par.Q != one.Q ||
		par.Graph.TotalWeight() != one.Graph.TotalWeight() {
		t.Fatalf("Workers=4 diverged from Workers=1: NMI %v vs %v, Q %v vs %v",
			par.NMI, one.NMI, par.Q, one.Q)
	}
}

// The fluent derivations compose and return values (never mutate their
// receiver).
func TestFluentOptionDerivations(t *testing.T) {
	base := DefaultOptions()
	derived := base.WithWorkers(4).WithIterations(10)
	if derived.Workers != 4 || derived.Iterations != 10 {
		t.Fatalf("chain did not apply: %+v", derived)
	}
	if base.Workers != DefaultOptions().Workers || base.Iterations != DefaultOptions().Iterations {
		t.Fatal("WithWorkers mutated its receiver")
	}
	if derived.TopFraction != base.TopFraction || derived.BT != base.BT {
		t.Fatal("chain disturbed unrelated fields")
	}
}
