package scenario

// The scenario side of the network-dynamics subsystem: the optional
// Dynamics section of a Spec (declared in JSON or through the Builder) is
// resolved against the spec's names and compiled into a
// dynamics.Timeline when the spec compiles. See package dynamics for the
// event model and the determinism contract.

import (
	"fmt"
	"math"

	"repro/internal/dynamics"
)

// dynamicsBinding builds the target-resolution tables for the spec's
// dynamics events and each link's starting capacity, against which
// dynamics.Compile bounds the link-scale factors. switches maps switch
// name -> vertex id and hostVerts maps dense host index -> vertex id;
// pass nil for both to validate without a compiled network (synthetic
// ids stand in — validation only needs resolvability, never id values).
func (s *Spec) dynamicsBinding(switches map[string]int, hostVerts []int) dynamics.Binding {
	swID := func(name string) int {
		if switches != nil {
			return switches[name]
		}
		for i, sw := range s.Switches {
			if sw.Name == name {
				return i
			}
		}
		return -1
	}
	b := dynamics.Binding{
		Links:    make(map[string][][2]int),
		Hosts:    make(map[string]int),
		Capacity: make(map[[2]int]float64),
	}
	capacity := make(map[string]float64, len(s.Links))
	for _, c := range s.Links {
		capacity[c.Name] = c.linkSpec().Capacity
	}
	// The first link Compile connects between two vertices is the one
	// Network.LinkCapacity reads.
	connect := func(u, v int, class string) {
		pair := [2]int{min(u, v), max(u, v)}
		if _, ok := b.Capacity[pair]; !ok {
			b.Capacity[pair] = capacity[class]
		}
	}
	for _, t := range s.Trunks {
		pair := [2]int{swID(t.A), swID(t.B)}
		b.Links[t.A+dynamics.LinkTargetSep+t.B] = append(b.Links[t.A+dynamics.LinkTargetSep+t.B], pair)
		b.Links[t.B+dynamics.LinkTargetSep+t.A] = append(b.Links[t.B+dynamics.LinkTargetSep+t.A], pair)
		b.Links[t.Link] = append(b.Links[t.Link], pair)
		connect(pair[0], pair[1], t.Link)
	}
	idx := 0
	for _, g := range s.Groups {
		for i := 0; i < g.Count; i++ {
			vert := len(s.Switches) + idx // synthetic: distinct from switch ids
			if hostVerts != nil {
				vert = hostVerts[idx]
			}
			b.Hosts[fmt.Sprintf("%s-%d", g.Prefix, i)] = idx
			b.HostVertex = append(b.HostVertex, vert)
			b.Links[g.Link] = append(b.Links[g.Link], [2]int{vert, swID(g.Switch)})
			connect(vert, swID(g.Switch), g.Link)
			idx++
		}
	}
	return b
}

// validateDynamics checks the spec's Dynamics section: every event must
// compile against the spec's names (see dynamics.Compile for the full
// rule set). Called by Spec.Validate.
func (s *Spec) validateDynamics() error {
	if len(s.Dynamics) == 0 {
		return nil
	}
	if _, err := dynamics.Compile(s.Dynamics, s.dynamicsBinding(nil, nil)); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// ValidateDynamicsFor checks that the spec's Dynamics timeline fits a run
// of the given iteration count: an event targeting a later iteration
// would validate and then silently never fire, which is always a scenario
// or sweep-configuration bug. Validate cannot run this check — a spec
// does not know how many iterations it will be measured under — so
// callers that do know the budget (the campaign grid expansion) invoke it
// per run.
func (s *Spec) ValidateDynamicsFor(iterations int) error {
	if len(s.Dynamics) == 0 {
		return nil
	}
	b := s.dynamicsBinding(nil, nil)
	b.Iterations = iterations
	if _, err := dynamics.Compile(s.Dynamics, b); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// --- Builder support -------------------------------------------------

// Dynamic appends one raw dynamics event; the typed helpers below cover
// the common kinds.
func (b *Builder) Dynamic(e dynamics.Event) *Builder {
	b.spec.Dynamics = append(b.spec.Dynamics, e)
	return b
}

// LinkScale multiplies the capacity of the targeted links (a link-class
// name or a trunk "a|b") by factor, from iteration iter onward.
func (b *Builder) LinkScale(iter int, target string, factor float64) *Builder {
	return b.Dynamic(dynamics.Event{Iter: iter, Kind: dynamics.LinkScale, Target: target, Param: factor})
}

// LinkDown fails the targeted links at atSeconds into iteration iter;
// traffic crossing them stalls until a matching LinkUp.
func (b *Builder) LinkDown(iter int, atSeconds float64, target string) *Builder {
	return b.Dynamic(dynamics.Event{Iter: iter, At: atSeconds, Kind: dynamics.LinkDown, Target: target})
}

// LinkUp restores links failed by a preceding LinkDown.
func (b *Builder) LinkUp(iter int, atSeconds float64, target string) *Builder {
	return b.Dynamic(dynamics.Event{Iter: iter, At: atSeconds, Kind: dynamics.LinkUp, Target: target})
}

// HostLeave removes the named host from the broadcast swarm from
// iteration iter onward.
func (b *Builder) HostLeave(iter int, host string) *Builder {
	return b.Dynamic(dynamics.Event{Iter: iter, Kind: dynamics.HostLeave, Target: host})
}

// HostJoin returns a departed host to the swarm from iteration iter
// onward.
func (b *Builder) HostJoin(iter int, host string) *Builder {
	return b.Dynamic(dynamics.Event{Iter: iter, Kind: dynamics.HostJoin, Target: host})
}

// Burst schedules one cross-traffic flow of megabytes MB from host src to
// host dst, atSeconds into iteration iter only — deterministic cross
// traffic for measuring "under conditions of high load" (§I).
func (b *Builder) Burst(iter int, atSeconds float64, src, dst string, megabytes float64) *Builder {
	return b.Dynamic(dynamics.Event{
		Iter: iter, At: atSeconds, Kind: dynamics.Burst,
		Target: src + dynamics.BurstTargetSep + dst, Param: megabytes,
	})
}

// --- DriftSites generator --------------------------------------------

// DriftSites generates a churn-heavy, time-varying member of the NSites
// family: sites flat sites of hostsPerSite hosts around a core switch,
// whose separation erodes over the run. intensity in [0, 1] scales every
// disturbance:
//
//   - from iteration 2 the site uplinks are scaled toward the aggregate
//     intra-site bandwidth (at intensity 1 the inter-site bottleneck
//     disappears entirely),
//   - round(4*intensity) hosts leave the swarm at staggered iterations
//     and rejoin four iterations later,
//   - a cross-site burst of 64*intensity MB loads the fabric during
//     iteration 2,
//   - at intensity >= 0.5 the site1 uplink fails for the first seconds of
//     iteration 4 and recovers mid-broadcast.
//
// At intensity 0 the spec is static and equivalent to NSites; as
// intensity rises the measured contrast fades, so the tomography NMI
// degrades — the sweep the Drift experiment (E17) runs. The ground truth
// stays one cluster per site: it describes the *initial* fabric, and the
// experiment measures how churn erodes its recoverability.
func DriftSites(sites, hostsPerSite int, intraMbps, interMbps, intensity float64) *Spec {
	if sites < 2 || hostsPerSite < 3 {
		panic("scenario: DriftSites needs at least two sites and three hosts per site")
	}
	if intensity < 0 || intensity > 1 {
		panic("scenario: DriftSites needs intensity in [0, 1]")
	}
	// The uplink latency is kept LAN-like (200 µs): with a WAN-like
	// millisecond latency the request-pipeline cap alone would separate
	// the sites no matter how much capacity the drift adds, and the
	// intensity sweep could never flatten the fabric.
	b := NewBuilder(fmt.Sprintf("drift-%dx%d-p%03.0f", sites, hostsPerSite, intensity*100)).
		Note("one ground-truth cluster per site; uplinks drift toward flat and hosts churn as intensity rises (generated DriftSites family)").
		Link("intra", intraMbps, 50e-6).
		Link("inter", interMbps, 200e-6).
		Switch("core")
	for i := 0; i < sites; i++ {
		b.FlatSite(fmt.Sprintf("site%d", i), "core", hostsPerSite, "intra", "inter")
	}
	if intensity > 0 {
		// Erode the bottleneck: scale the uplink class toward the
		// aggregate intra-site bandwidth. The interpolation is geometric
		// (flat^intensity) because bandwidth contrast is a ratio — a
		// linear ramp spends most of the sweep already flat.
		flat := float64(hostsPerSite) * intraMbps / interMbps
		if flat > 1 {
			b.LinkScale(2, "inter", math.Pow(flat, intensity))
		}
		// Staggered churn, round-robin across sites, sparing host 0 of
		// each site so the default broadcast root's site keeps its seed.
		churn := int(math.Round(4 * intensity))
		for j := 0; j < churn; j++ {
			host := fmt.Sprintf("site%d-%d", j%sites, 1+j/sites)
			b.HostLeave(3+j, host).HostJoin(7+j, host)
		}
		b.Burst(2, 0, "site0-0", fmt.Sprintf("site%d-0", sites-1), 64*intensity)
		if intensity >= 0.5 {
			b.LinkDown(4, 0, "site1-sw"+dynamics.LinkTargetSep+"core").
				LinkUp(4, 5, "site1-sw"+dynamics.LinkTargetSep+"core")
		}
	}
	return b.MustSpec()
}
