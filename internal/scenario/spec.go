// Package scenario is the declarative scenario API of the repository: a
// topology is described as data (a Spec), not as a Go constructor.
//
// The paper's method is topology-agnostic — it reconstructs bandwidth
// clusters from application-level broadcasts on any network — so the set
// of measurable networks must not be bounded by the six Grid'5000
// datasets the paper evaluates. A Spec captures everything a measurement
// scenario needs: link parameter classes, the switch fabric, host groups
// with their attachment points, and the ground-truth logical clustering
// the tomography answer is scored against. Specs serialise to JSON
// (files a CLI user can write by hand), compile to topology.Dataset
// with full validation, and live in an extensible registry that seeds
// itself with the paper's six datasets and accepts user-registered and
// file-loaded scenarios at runtime.
//
// Three ways to obtain a Spec:
//
//   - write JSON and Decode/Load it,
//   - assemble one with the fluent Builder,
//   - call a generator for a synthetic family (NSites, FatTree,
//     SkewedSites, DriftSites) or a Grid'5000 one (BordeauxScaled,
//     FlatSites, RandomSites).
//
// Spec.Compile turns any of them into a ready-to-measure dataset.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/dynamics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// LinkClass is a named, reusable set of link parameters. Bandwidths are
// application-level achievable rates in Mbit/s (protocol efficiency
// folded in), matching how the paper reports NetPIPE numbers.
type LinkClass struct {
	// Name is the identifier trunks and host groups refer to.
	Name string `json:"name"`
	// Mbps is the usable bandwidth of each direction in Mbit/s.
	Mbps float64 `json:"mbps"`
	// LatencyS is the one-way propagation delay in seconds.
	LatencyS float64 `json:"latency_s"`
	// PerFlowMbps, when non-zero, caps every individual flow crossing
	// the link — the paper's single-stream WAN observation (787 Mbit/s
	// across a 10 Gbit/s backbone, §IV-A).
	PerFlowMbps float64 `json:"per_flow_mbps,omitempty"`
}

// linkSpec converts the class to the simulator's native units.
func (c LinkClass) linkSpec() simnet.LinkSpec {
	return simnet.LinkSpec{
		Capacity:   simnet.Mbps(c.Mbps),
		Latency:    c.LatencyS,
		PerFlowCap: simnet.Mbps(c.PerFlowMbps),
	}
}

// Switch declares one switch of the fabric. Switches forward flows but
// cannot terminate them.
type Switch struct {
	Name string `json:"name"`
}

// Trunk joins two switches with a full-duplex link of the given class.
type Trunk struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Link string `json:"link"`
}

// HostGroup declares Count hosts named Prefix-0 .. Prefix-(Count-1),
// each attached to Switch by a link of class Link, all belonging to the
// ground-truth cluster named Cluster.
type HostGroup struct {
	Prefix  string `json:"prefix"`
	Count   int    `json:"count"`
	Switch  string `json:"switch"`
	Link    string `json:"link"`
	Cluster string `json:"cluster"`
}

// Spec is a declarative measurement scenario: the network under test
// plus the ground truth its tomography answer is scored against.
//
// Host indices are assigned densely in group order (group 0's hosts
// first), which fixes the Dataset.Hosts order, the measurement-graph
// vertex order and the ground-truth label order. Ground-truth labels are
// assigned by first appearance of each distinct Cluster name across the
// groups.
type Spec struct {
	// Name identifies the scenario (registry key, CLI -dataset value).
	Name string `json:"name"`
	// Note documents the scenario, in particular how the ground truth
	// was derived; it becomes Dataset.TruthNote.
	Note string `json:"note,omitempty"`
	// Links are the link parameter classes referenced by name below.
	Links []LinkClass `json:"links"`
	// Switches is the switch fabric.
	Switches []Switch `json:"switches"`
	// Trunks are the switch-to-switch links.
	Trunks []Trunk `json:"trunks,omitempty"`
	// Groups are the host groups, in host-index order.
	Groups []HostGroup `json:"groups"`
	// Dynamics is the optional scripted event timeline that makes the
	// scenario time-varying: link capacity drift, link failures and
	// recoveries, host churn, and timed cross-traffic bursts. Events are
	// replayed deterministically on every measurement replica; see
	// package dynamics for the event model and repro's "Time-varying
	// scenarios" documentation for examples.
	Dynamics []dynamics.Event `json:"dynamics,omitempty"`
}

// NumHosts returns the total host count of the scenario.
func (s *Spec) NumHosts() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// Clusters returns the distinct ground-truth cluster names in label
// order (first appearance across the groups).
func (s *Spec) Clusters() []string {
	var names []string
	seen := make(map[string]bool)
	for _, g := range s.Groups {
		if !seen[g.Cluster] {
			seen[g.Cluster] = true
			names = append(names, g.Cluster)
		}
	}
	return names
}

// Clone returns a deep copy of the spec, so registered specs cannot be
// mutated through retained pointers.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Links = append([]LinkClass(nil), s.Links...)
	c.Switches = append([]Switch(nil), s.Switches...)
	c.Trunks = append([]Trunk(nil), s.Trunks...)
	c.Groups = append([]HostGroup(nil), s.Groups...)
	c.Dynamics = append([]dynamics.Event(nil), s.Dynamics...)
	return &c
}

// Validate checks the spec for structural soundness: unique names,
// resolvable references, positive parameters, at least two hosts, and a
// connected fabric. It returns the first problem found.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	links := make(map[string]bool, len(s.Links))
	for i, c := range s.Links {
		if c.Name == "" {
			return fmt.Errorf("scenario %s: link class %d needs a name", s.Name, i)
		}
		if links[c.Name] {
			return fmt.Errorf("scenario %s: duplicate link class %q", s.Name, c.Name)
		}
		links[c.Name] = true
		if c.Mbps <= 0 {
			return fmt.Errorf("scenario %s: link class %q needs positive mbps, have %g", s.Name, c.Name, c.Mbps)
		}
		if c.LatencyS < 0 {
			return fmt.Errorf("scenario %s: link class %q has negative latency %g", s.Name, c.Name, c.LatencyS)
		}
		if c.PerFlowMbps < 0 {
			return fmt.Errorf("scenario %s: link class %q has negative per-flow cap %g", s.Name, c.Name, c.PerFlowMbps)
		}
		for _, mbps := range [2]float64{c.Mbps, c.PerFlowMbps} {
			if r := simnet.Mbps(mbps); math.IsInf(r, 0) || math.IsNaN(r) {
				return fmt.Errorf("scenario %s: link class %q: %g mbps is not a finite byte rate", s.Name, c.Name, mbps)
			}
		}
	}
	switches := make(map[string]int, len(s.Switches))
	for i, sw := range s.Switches {
		if sw.Name == "" {
			return fmt.Errorf("scenario %s: switch %d needs a name", s.Name, i)
		}
		if _, dup := switches[sw.Name]; dup {
			return fmt.Errorf("scenario %s: duplicate switch %q", s.Name, sw.Name)
		}
		switches[sw.Name] = i
	}
	for i, t := range s.Trunks {
		if _, ok := switches[t.A]; !ok {
			return fmt.Errorf("scenario %s: trunk %d references unknown switch %q", s.Name, i, t.A)
		}
		if _, ok := switches[t.B]; !ok {
			return fmt.Errorf("scenario %s: trunk %d references unknown switch %q", s.Name, i, t.B)
		}
		if t.A == t.B {
			return fmt.Errorf("scenario %s: trunk %d connects switch %q to itself", s.Name, i, t.A)
		}
		if !links[t.Link] {
			return fmt.Errorf("scenario %s: trunk %d (%s-%s) references unknown link class %q", s.Name, i, t.A, t.B, t.Link)
		}
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario %s: needs at least one host group", s.Name)
	}
	prefixes := make(map[string]bool, len(s.Groups))
	for i, g := range s.Groups {
		if g.Prefix == "" {
			return fmt.Errorf("scenario %s: host group %d needs a prefix", s.Name, i)
		}
		if prefixes[g.Prefix] {
			return fmt.Errorf("scenario %s: duplicate host group prefix %q", s.Name, g.Prefix)
		}
		prefixes[g.Prefix] = true
		if _, clash := switches[g.Prefix]; clash {
			return fmt.Errorf("scenario %s: host group prefix %q collides with a switch name", s.Name, g.Prefix)
		}
		if g.Count < 1 {
			return fmt.Errorf("scenario %s: host group %q needs a positive count, have %d", s.Name, g.Prefix, g.Count)
		}
		if _, ok := switches[g.Switch]; !ok {
			return fmt.Errorf("scenario %s: host group %q attaches to unknown switch %q", s.Name, g.Prefix, g.Switch)
		}
		if !links[g.Link] {
			return fmt.Errorf("scenario %s: host group %q references unknown link class %q", s.Name, g.Prefix, g.Link)
		}
		if g.Cluster == "" {
			return fmt.Errorf("scenario %s: host group %q needs a ground-truth cluster name", s.Name, g.Prefix)
		}
	}
	if n := s.NumHosts(); n < 2 {
		return fmt.Errorf("scenario %s: tomography needs at least 2 hosts, have %d", s.Name, n)
	}
	if err := s.validateConnected(switches); err != nil {
		return err
	}
	return s.validateDynamics()
}

// validateConnected verifies the trunk graph joins every switch into one
// component, so every host pair has a route. (Host links cannot bridge
// components: each host attaches to exactly one switch.)
func (s *Spec) validateConnected(switches map[string]int) error {
	if len(s.Switches) <= 1 {
		return nil
	}
	adj := make([][]int, len(s.Switches))
	for _, t := range s.Trunks {
		a, b := switches[t.A], switches[t.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	seen := make([]bool, len(s.Switches))
	queue := []int{0}
	seen[0] = true
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	if reached != len(s.Switches) {
		var cut []string
		for i, ok := range seen {
			if !ok {
				cut = append(cut, s.Switches[i].Name)
			}
		}
		return fmt.Errorf("scenario %s: fabric is disconnected; unreachable switches: %s",
			s.Name, strings.Join(cut, ", "))
	}
	return nil
}

// Compile validates the spec and materialises it as a ready-to-measure
// dataset on a fresh simulation engine. Compiling the same spec twice
// yields independent datasets that measure bit-identically.
func (s *Spec) Compile() (*topology.Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net := simnet.New(eng)
	classes := make(map[string]simnet.LinkSpec, len(s.Links))
	for _, c := range s.Links {
		classes[c.Name] = c.linkSpec()
	}
	switches := make(map[string]int, len(s.Switches))
	for _, sw := range s.Switches {
		switches[sw.Name] = net.AddSwitch(sw.Name)
	}
	for _, t := range s.Trunks {
		net.Connect(switches[t.A], switches[t.B], classes[t.Link])
	}
	var hosts, truth []int
	labels := make(map[string]int)
	for _, g := range s.Groups {
		label, ok := labels[g.Cluster]
		if !ok {
			label = len(labels)
			labels[g.Cluster] = label
		}
		for i := 0; i < g.Count; i++ {
			h := net.AddHost(fmt.Sprintf("%s-%d", g.Prefix, i))
			net.Connect(h, switches[g.Switch], classes[g.Link])
			hosts = append(hosts, h)
			truth = append(truth, label)
		}
	}
	var tl *dynamics.Timeline
	if len(s.Dynamics) > 0 {
		var err error
		tl, err = dynamics.Compile(s.Dynamics, s.dynamicsBinding(switches, hosts))
		if err != nil {
			// Validate already compiled against synthetic ids, so this
			// only fires if the spec mutated since.
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return &topology.Dataset{
		Name:        s.Name,
		Eng:         eng,
		Net:         net,
		Hosts:       hosts,
		GroundTruth: truth,
		TruthNote:   s.Note,
		Timeline:    tl,
	}, nil
}

// Encode renders the spec as indented JSON.
func (s *Spec) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// Decode parses and validates a JSON spec. Unknown fields are rejected:
// spec files are written by hand, and a typo'd key (say "latency" for
// "latency_s") must fail loudly instead of silently zeroing a parameter.
// So is anything but white space after the spec's object: a file holding
// two specs, or a spec and junk, is not its first spec.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: data after the spec's JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
