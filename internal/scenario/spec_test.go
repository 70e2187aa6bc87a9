package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/simnet"
)

// twoSiteSpec is a small valid scenario used across the tests.
func twoSiteSpec(name string) *Spec {
	return NewBuilder(name).
		Note("two flat sites").
		Link("eth", 890, 50e-6).
		LinkPerFlow("wan", 10000, 4e-3, 787).
		Switch("core").
		FlatSite("left", "core", 3, "eth", "wan").
		FlatSite("right", "core", 3, "eth", "wan").
		MustSpec()
}

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []*Spec{
		twoSiteSpec("round"),
		NSites(3, 4, 890, 100),
		FatTree(2, 2, 2, 890, 890, 100),
		SkewedSites(3, 2, 890, 800, 0.5),
	}
	specs = append(specs, BuiltinSpecs()...)
	for _, s := range specs {
		data, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: JSON round trip changed the spec:\n%s", s.Name, data)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Decode([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("spec without hosts accepted")
	}
}

// A spec file holds one spec: a valid spec followed by junk or by a
// second spec is refused, not read as its first object. Trailing white
// space is accepted.
func TestDecodeRejectsTrailingData(t *testing.T) {
	data, err := twoSiteSpec("trailing").Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, " \n"...)); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
	for _, tail := range []string{"x", "\n" + string(data)} {
		if _, err := Decode(append(slices.Clip(data), tail...)); err == nil {
			t.Errorf("spec followed by %q accepted", tail)
		}
	}
}

// Hand-written spec files must fail loudly on typo'd keys instead of
// silently zeroing the parameter ("latency" vs "latency_s").
func TestDecodeRejectsUnknownFields(t *testing.T) {
	data, err := twoSiteSpec("typo").Encode()
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), `"latency_s"`, `"latency"`, 1)
	if _, err := Decode([]byte(mangled)); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("typo'd key not rejected: err = %v", err)
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	cases := []struct {
		wantSub string
		mutate  func(*Spec)
	}{
		{"needs a name", func(s *Spec) { s.Name = "" }},
		{"duplicate link class", func(s *Spec) { s.Links = append(s.Links, s.Links[0]) }},
		{"positive mbps", func(s *Spec) { s.Links[0].Mbps = 0 }},
		{"negative latency", func(s *Spec) { s.Links[0].LatencyS = -1 }},
		{"negative per-flow cap", func(s *Spec) { s.Links[1].PerFlowMbps = -1 }},
		// Mbps(1e303) overflows to +Inf bytes/s, which simnet cannot solve.
		{"not a finite byte rate", func(s *Spec) { s.Links[0].Mbps = 1e303 }},
		{"not a finite byte rate", func(s *Spec) { s.Links[0].Mbps = math.NaN() }},
		{"not a finite byte rate", func(s *Spec) { s.Links[1].PerFlowMbps = 1e303 }},
		{"not a finite byte rate", func(s *Spec) { s.Links[1].PerFlowMbps = math.NaN() }},
		{"finite positive factor", func(s *Spec) {
			s.Dynamics = []dynamics.Event{{Iter: 1, Kind: dynamics.LinkScale, Target: s.Links[0].Name, Param: math.Inf(1)}}
		}},
		// Mbps(10000) * 1e303 is +Inf bytes/s, which SetLinkCapacity
		// refuses mid-run; so is a product of factors that overflows or
		// underflows to 0 only together.
		{"must stay finite and positive", func(s *Spec) {
			s.Dynamics = []dynamics.Event{{Iter: 1, Kind: dynamics.LinkScale, Target: "wan", Param: 1e303}}
		}},
		{"must stay finite and positive", func(s *Spec) {
			s.Dynamics = []dynamics.Event{
				{Iter: 1, Kind: dynamics.LinkScale, Target: "wan", Param: 1e160},
				{Iter: 3, Kind: dynamics.LinkScale, Target: "left-sw|core", Param: 1e160},
			}
		}},
		{"must stay finite and positive", func(s *Spec) {
			s.Dynamics = []dynamics.Event{
				{Iter: 1, Kind: dynamics.LinkScale, Target: "eth", Param: 1e-300},
				{Iter: 2, Kind: dynamics.LinkScale, Target: "eth", Param: 1e-100},
			}
		}},
		{"duplicate switch", func(s *Spec) { s.Switches = append(s.Switches, s.Switches[0]) }},
		{"unknown switch", func(s *Spec) { s.Trunks[0].A = "nowhere" }},
		{"to itself", func(s *Spec) { s.Trunks[0].B = s.Trunks[0].A }},
		{"unknown link class", func(s *Spec) { s.Trunks[0].Link = "bogus" }},
		{"at least one host group", func(s *Spec) { s.Groups = nil }},
		{"needs a prefix", func(s *Spec) { s.Groups[0].Prefix = "" }},
		{"duplicate host group prefix", func(s *Spec) { s.Groups[1].Prefix = s.Groups[0].Prefix }},
		{"collides with a switch", func(s *Spec) { s.Groups[0].Prefix = "core" }},
		{"positive count", func(s *Spec) { s.Groups[0].Count = 0 }},
		{"attaches to unknown switch", func(s *Spec) { s.Groups[0].Switch = "nowhere" }},
		{"unknown link class", func(s *Spec) { s.Groups[0].Link = "bogus" }},
		{"cluster name", func(s *Spec) { s.Groups[0].Cluster = "" }},
		{"at least 2 hosts", func(s *Spec) { s.Groups = s.Groups[:1]; s.Groups[0].Count = 1 }},
		{"disconnected", func(s *Spec) { s.Trunks = s.Trunks[:1] }},
	}
	for _, c := range cases {
		s := twoSiteSpec("broken")
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("mutation expecting %q got no error", c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("error %q does not mention %q", err, c.wantSub)
		}
		if _, cerr := s.Compile(); cerr == nil {
			t.Errorf("Compile accepted a spec Validate rejects (%q)", c.wantSub)
		}
	}
}

func TestCompileShape(t *testing.T) {
	s := twoSiteSpec("shape")
	d, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 6 {
		t.Fatalf("compiled %d hosts, want 6", d.N())
	}
	if d.Name != "shape" || d.TruthNote != "two flat sites" {
		t.Fatalf("metadata lost: %q / %q", d.Name, d.TruthNote)
	}
	wantTruth := []int{0, 0, 0, 1, 1, 1}
	for i, l := range d.GroundTruth {
		if l != wantTruth[i] {
			t.Fatalf("truth = %v, want %v", d.GroundTruth, wantTruth)
		}
	}
	if name := d.HostName(0); name != "left-0" {
		t.Fatalf("host 0 named %q, want left-0", name)
	}
	// Cross-site path: eth then wan then eth, with the wan per-flow cap
	// binding the single-flow capacity.
	info := d.Net.Path(d.Hosts[0], d.Hosts[3])
	if info.Capacity != simnet.Mbps(787) {
		t.Fatalf("cross-site capacity = %v, want per-flow cap %v", info.Capacity, simnet.Mbps(787))
	}
	// Compiling the same spec twice yields bit-identical measurements.
	d2, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := parityOptions(2)
	a, err := core.RunDataset(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunDataset(d2, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, a, b)
}

func TestGeneratorShapes(t *testing.T) {
	n := NSites(4, 3, 890, 100)
	if n.NumHosts() != 12 || len(n.Clusters()) != 4 {
		t.Fatalf("NSites: %d hosts, %d clusters", n.NumHosts(), len(n.Clusters()))
	}
	f := FatTree(3, 2, 2, 890, 890, 100)
	if f.NumHosts() != 12 || len(f.Clusters()) != 3 {
		t.Fatalf("FatTree: %d hosts, %d clusters", f.NumHosts(), len(f.Clusters()))
	}
	if len(f.Switches) != 1+3+6 {
		t.Fatalf("FatTree switches = %d, want 10", len(f.Switches))
	}
	k := SkewedSites(3, 2, 890, 800, 0.5)
	if k.NumHosts() != 6 || len(k.Clusters()) != 3 {
		t.Fatalf("SkewedSites: %d hosts, %d clusters", k.NumHosts(), len(k.Clusters()))
	}
	// The decayed uplinks must actually decay.
	var uplinks []float64
	for _, c := range k.Links {
		if strings.HasPrefix(c.Name, "uplink") {
			uplinks = append(uplinks, c.Mbps)
		}
	}
	if len(uplinks) != 3 || uplinks[1] != uplinks[0]/2 || uplinks[2] != uplinks[0]/4 {
		t.Fatalf("skewed uplinks = %v", uplinks)
	}
	for _, s := range []*Spec{n, f, k} {
		if _, err := s.Compile(); err != nil {
			t.Fatalf("%s does not compile: %v", s.Name, err)
		}
	}
}

// A generated family member must run end-to-end and recover its declared
// ground truth.
func TestGeneratedScenarioRecoversTruth(t *testing.T) {
	d, err := NSites(3, 4, 890, 100).Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts := parityOptions(6)
	// Multi-site settings need more per-edge signal than the parity runs
	// (cf. the E16 stress experiment's 8000-fragment floor).
	opts.BT.FileBytes = 8000 * opts.BT.FragmentSize
	res, err := core.RunDataset(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.NumClusters() != 3 || res.NMI < 0.999 {
		t.Fatalf("NSites(3,4): %d clusters, NMI %.3f; want 3 clusters at NMI 1",
			res.Partition.NumClusters(), res.NMI)
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	s := twoSiteSpec("register-test-unique")
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	if err := Register(s); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration: err = %v", err)
	}
	if err := Register(&Spec{}); err == nil {
		t.Fatal("invalid spec registered")
	}
	got, ok := Lookup("register-test-unique")
	if !ok || got.NumHosts() != 6 {
		t.Fatalf("lookup after register: ok=%v spec=%+v", ok, got)
	}
	// The registry hands out copies: mutating a looked-up spec must not
	// change the registered one.
	got.Groups[0].Count = 99
	again, _ := Lookup("register-test-unique")
	if again.Groups[0].Count != 3 {
		t.Fatal("registry exposes internal state")
	}
	if _, err := New("never-registered"); err == nil {
		t.Fatal("unknown scenario compiled")
	}
}

func TestBuilderErrSurfacesProblems(t *testing.T) {
	b := NewBuilder("bad").Link("eth", 890, 0).Switch("sw")
	b.Hosts("h", 2, "elsewhere", "eth", "c")
	if err := b.Err(); err == nil {
		t.Fatal("builder accepted dangling switch reference")
	}
	if _, err := b.Spec(); err == nil {
		t.Fatal("Spec() accepted dangling switch reference")
	}
}

func TestSpecEncodeIsStableJSON(t *testing.T) {
	data, err := twoSiteSpec("json").Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("Encode emitted invalid JSON: %v", err)
	}
	for _, key := range []string{"name", "links", "switches", "trunks", "groups"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("encoded spec lacks %q:\n%s", key, data)
		}
	}
}

func ExampleNSites() {
	s := NSites(3, 8, 890, 100)
	fmt.Println(s.Name, s.NumHosts(), "hosts,", len(s.Clusters()), "clusters")
	// Output: nsites-3x8 24 hosts, 3 clusters
}
