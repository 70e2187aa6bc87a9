package scenario

import "fmt"

// Builder assembles a Spec fluently. Every method returns the receiver,
// so scenarios read as a declaration:
//
//	spec, err := scenario.NewBuilder("demo").
//		Link("eth", 890, 50e-6).
//		Link("wan", 10000, 4e-3).
//		Switch("core", "left", "right").
//		Trunk("left", "core", "wan").
//		Trunk("right", "core", "wan").
//		Hosts("l", 8, "left", "eth", "left").
//		Hosts("r", 8, "right", "eth", "right").
//		Spec()
//
// Structural mistakes (duplicate names, dangling references, bad
// parameters) are reported once, by Spec or Build, so chains need no
// per-call error handling.
type Builder struct {
	spec Spec
}

// NewBuilder starts a scenario named name.
func NewBuilder(name string) *Builder {
	return &Builder{spec: Spec{Name: name}}
}

// Note sets the scenario's documentation note (Dataset.TruthNote).
func (b *Builder) Note(note string) *Builder {
	b.spec.Note = note
	return b
}

// Link declares a link class: bandwidth in Mbit/s, one-way latency in
// seconds.
func (b *Builder) Link(name string, mbps, latencySeconds float64) *Builder {
	b.spec.Links = append(b.spec.Links, LinkClass{Name: name, Mbps: mbps, LatencyS: latencySeconds})
	return b
}

// LinkPerFlow declares a link class whose individual flows are
// additionally capped at perFlowMbps (the paper's WAN single-stream
// behaviour).
func (b *Builder) LinkPerFlow(name string, mbps, latencySeconds, perFlowMbps float64) *Builder {
	b.spec.Links = append(b.spec.Links, LinkClass{
		Name: name, Mbps: mbps, LatencyS: latencySeconds, PerFlowMbps: perFlowMbps,
	})
	return b
}

// Switch declares one or more switches.
func (b *Builder) Switch(names ...string) *Builder {
	for _, n := range names {
		b.spec.Switches = append(b.spec.Switches, Switch{Name: n})
	}
	return b
}

// Trunk joins switches a and c with a link of class link.
func (b *Builder) Trunk(a, c, link string) *Builder {
	b.spec.Trunks = append(b.spec.Trunks, Trunk{A: a, B: c, Link: link})
	return b
}

// Hosts declares count hosts prefixed prefix on switch sw, attached with
// link-class link, in ground-truth cluster cluster.
func (b *Builder) Hosts(prefix string, count int, sw, link, cluster string) *Builder {
	b.spec.Groups = append(b.spec.Groups, HostGroup{
		Prefix: prefix, Count: count, Switch: sw, Link: link, Cluster: cluster,
	})
	return b
}

// FlatSite is the common site idiom as one call: a site switch named
// site+"-sw" trunked to backbone with uplink, carrying count hosts named
// site-0.. attached with hostLink, forming ground-truth cluster site.
func (b *Builder) FlatSite(site, backbone string, count int, hostLink, uplink string) *Builder {
	sw := site + "-sw"
	return b.Switch(sw).
		Trunk(sw, backbone, uplink).
		Hosts(site, count, sw, hostLink, site)
}

// Err validates the spec assembled so far, for callers that want to
// check mid-chain; Spec and Build perform the same validation.
func (b *Builder) Err() error { return b.spec.Validate() }

// Spec finalises and validates the assembled spec. The returned spec is
// a copy: the builder can keep extending without aliasing it.
func (b *Builder) Spec() (*Spec, error) {
	if err := b.spec.Validate(); err != nil {
		return nil, err
	}
	return b.spec.Clone(), nil
}

// MustSpec is Spec for statically-known scenarios (generators, builtins);
// it panics on validation failure.
func (b *Builder) MustSpec() *Spec {
	s, err := b.Spec()
	if err != nil {
		panic(fmt.Sprintf("scenario: invalid built-in spec: %v", err))
	}
	return s
}
