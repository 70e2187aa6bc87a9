package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func toyConfig(t *testing.T) config {
	dir := t.TempDir()
	return config{seed: 1, nproc: 2, workDir: dir, outDir: dir, toy: true}
}

// Every workload, at toy size, must print every declared metric: all
// end-to-end metrics untraced, and traced a non-zero value for every
// per-layer metric whose declared target names that workload.
func TestWorkloadsProduceEveryDeclaredMetric(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w.Name, toyConfig(t), 0.05, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range e2eDefs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			if len(res.Metrics) != len(e2eDefs) {
				t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(e2eDefs))
			}

			traced, err := runWorkload(w.Name, toyConfig(t), 0.05, true)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed %d of %d operations", traced.Failed, traced.Attempted)
			}
			if len(traced.Metrics) != len(layerDefs) {
				t.Errorf("traced run printed %d metrics, want %d", len(traced.Metrics), len(layerDefs))
			}
			for _, d := range layerDefs {
				m, ok := traced.Metrics[d.Name]
				if !ok {
					t.Errorf("per-layer %s missing", d.Name)
					continue
				}
				// CPU shares need profile samples a 50 ms toy run may not
				// have, and the overhead is a difference that may be 0.
				if strings.HasPrefix(d.Name, "cpu_share.") || d.Name == "telemetry.overhead_pct" {
					continue
				}
				for _, on := range d.On {
					if on == w.Name && (m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
						t.Errorf("per-layer %s = %v on %s, which its target names", d.Name, m.Value, w.Name)
					}
				}
			}
			if _, err := os.Stat(traced.spanFile); err != nil {
				t.Errorf("span JSONL: %v", err)
			}
		})
	}
}

// The catalog must fit the driver's contract and BENCHMARK.json must be
// the catalog, byte for byte.
func TestCatalogMatchesContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(e2eDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	workloads := map[string]bool{}
	for _, w := range workloadDefs {
		use(w.Name)
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	gated := map[string]bool{}
	for _, d := range e2eDefs {
		use(d.Name)
		gated[d.Name] = true
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v is outside the contract", d)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range layerDefs {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v is outside the contract", d)
		}
		// A per-layer metric either names the end-to-end metric it should
		// move and where, or declares that it moves nothing gated.
		if d.Moves == "" {
			continue
		}
		if !gated[d.Moves] {
			t.Errorf("per-layer %s moves unknown end-to-end metric %q", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("per-layer %s moves %s on no workload", d.Name, d.Moves)
		}
		for _, on := range d.On {
			if !workloads[on] {
				t.Errorf("per-layer %s names unknown workload %q", d.Name, on)
			}
		}
	}
	for share := range cpuSharePackages {
		if !seen[share] {
			t.Errorf("%s has a package prefix but is not a per-layer metric", share)
		}
	}

	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with `sh bench/run.sh -benchmark-json > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestVerdict(t *testing.T) {
	m := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3, N: 9} }
	tight := func(v float64) metric { return m(v, v*0.99, v*1.01) }
	for _, tc := range []struct {
		name  string
		a, b  metric
		dir   string
		bound float64
		want  string
	}{
		{"within bound", tight(1.00), tight(1.05), "lower", 0.10, same},
		{"slower beyond bound", tight(1.00), tight(1.11), "lower", 0.10, worse},
		{"faster beyond bound", tight(1.00), tight(0.85), "lower", 0.10, better},
		{"higher is better, dropped", tight(100), tight(85), "higher", 0.10, worse},
		{"higher is better, rose", tight(100), tight(120), "higher", 0.10, better},
		{"higher is better, steady", tight(100), tight(104), "higher", 0.10, same},
		{"spread wider than bound hides a small change", m(1.00, 0.90, 1.10), tight(1.03), "lower", 0.10, unresolved},
		{"wide spread on B only", tight(1.00), m(1.02, 0.95, 1.12), "lower", 0.10, unresolved},
		{"wide spread but clearly worse", m(1.00, 0.90, 1.10), tight(1.30), "lower", 0.10, worse},
		{"tight allocs bound", tight(1000), tight(1060), "lower", 0.05, worse},
		{"single samples have no spread", metric{Value: 20, Q1: 20, Q3: 20, N: 1}, metric{Value: 21, Q1: 21, Q3: 21, N: 1}, "lower", 0.10, same},
		{"zero baseline", metric{}, tight(1), "lower", 0.10, unresolved},
	} {
		if got := verdict(tc.a, tc.b, tc.dir, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	base := machine{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a", Seed: 1}
	res := &result{Workload: wBGTL, Metrics: map[string]metric{"run_wall_s": {Unit: "s", Value: 1, Q1: 1, Q3: 1, N: 3}}}
	a := &setFile{Context: base, Results: []*result{res}}

	other := base
	other.Commit = "b"
	rows, err := compareSets(a, &setFile{Context: other, Results: []*result{res}})
	if err != nil || len(rows) != 1 || rows[0].verdict != same {
		t.Errorf("differing commits must compare: rows %+v, err %v", rows, err)
	}
	for _, change := range []func(*machine){
		func(m *machine) { m.NProc = 8 },
		func(m *machine) { m.GOMAXPROCS = 1 },
		func(m *machine) { m.GoVersion = "go1.25.0" },
		func(m *machine) { m.Seed = 2 },
	} {
		other := base
		change(&other)
		if _, err := compareSets(a, &setFile{Context: other, Results: []*result{res}}); err == nil {
			t.Errorf("compared %+v against %+v", base, other)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which
// the driver applies to the same values.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
	}
	// statistics.quantiles([2.0, 1.0], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v %v %v", q1, med, q3)
	}
}

func TestParseSteal(t *testing.T) {
	for stat, want := range map[string]float64{
		"cpu  959116 0 142771 1017708 88520 0 20421 56267 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n": 562.67,
		"cpu  1 2 3 4 5 6 7\n": 0, // a kernel older than the steal column
		"":                     0,
	} {
		if got := parseSteal(stat); got != want {
			t.Errorf("parseSteal(%q) = %v, want %v", stat, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{ID: 1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "b", StartNS: 40, EndNS: 70}, // overlaps a: the union covers 10..70
		{ID: 4, Parent: 2, Name: "c", StartNS: 20, EndNS: 30},
	}
	self := tr.selfSeconds()
	for name, wantNS := range map[string]float64{"rep": 40, "a": 30, "b": 30, "c": 10} {
		if got := self[name] * 1e9; math.Abs(got-wantNS) > 1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", name, got, wantNS)
		}
	}
}

func TestSumTopGroupsByPackage(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.40s 40.00% 40.00%      0.50s 50.00%  repro/internal/simnet.(*Network).solve
     0.20s 20.00% 60.00%      0.20s 20.00%  runtime.mallocgc
     0.10s 10.00% 70.00%      0.10s 10.00%  repro/internal/archive/serve.respond
     0.10s 10.00% 80.00%      0.10s 10.00%  repro/internal/sim.(*Engine).Step
     0.10s 10.00% 90.00%      0.10s 10.00%  runtime/internal/syscall.Syscall6
     0.10s 10.00%   100%      0.10s 10.00%  encoding/json.(*encodeState).string
`
	shares, err := sumTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cpu_share.simnet": 40, "cpu_share.runtime": 30, "cpu_share.archive": 10,
		"cpu_share.sim": 10, "cpu_share.other": 10, "cpu_share.core": 0,
	} {
		if got := shares[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
