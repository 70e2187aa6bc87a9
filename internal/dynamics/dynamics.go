// Package dynamics is the deterministic network-dynamics subsystem: a
// data-driven event timeline that makes a measurement scenario
// time-varying — link capacities drift, links fail and recover, hosts
// leave and rejoin the broadcast swarm, and timed cross-traffic bursts
// load the fabric — without giving up a single bit of reproducibility.
//
// The paper's tomography measures a static fabric, but its stated promise
// (§V) is tracking logical clusters as the underlying network changes:
// overlays re-routing, virtual machines migrating, hardware degrading.
// This package turns that from a hand-written test harness into scenario
// data: a Timeline is compiled once from a list of Events (the optional
// Dynamics section of scenario.Spec), validated up front, and then
// replayed onto the simulator replica of every iteration.
//
// # Determinism contract
//
// The timeline is pure data. It holds no engine, no flows and no mutable
// state; Apply schedules its events through sim.Engine.ScheduleAt on the
// replica engine it is given and mutates only that replica's network.
// Because each measurement iteration runs on its own clone
// (simnet.Network.Clone shares no mutable link state), replaying the
// timeline per iteration yields bit-identical core.Results for any
// worker count — the same contract static runs keep.
//
// # Event model
//
// An Event is {Iter, At, Kind, Target, Param}. Iter is the 1-based
// measurement iteration the event takes effect in; At is an optional
// offset in simulated seconds within that iteration. Link events are
// persistent: during iteration Iter they fire mid-broadcast at At, and
// for every later iteration they are part of the network state installed
// before the broadcast starts. Bursts are transient: they fire only in
// their own iteration. Churn events take effect at iteration boundaries
// (At must be zero) and change swarm membership, not the network.
package dynamics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Kind names one event type.
type Kind string

// The event kinds of the timeline.
const (
	// LinkScale multiplies the current capacity of the targeted links by
	// Param (> 0). Target is a link-class name or a trunk "a|b".
	LinkScale Kind = "link-scale"
	// LinkDown fails the targeted links: traffic crossing them stalls at
	// rate zero until a matching LinkUp. Target as for LinkScale.
	LinkDown Kind = "link-down"
	// LinkUp restores links failed by a preceding LinkDown.
	LinkUp Kind = "link-up"
	// HostLeave removes the named host from the broadcast swarm from
	// iteration Iter onward (the host's links stay; it just stops
	// participating, and NMI is scored without it).
	HostLeave Kind = "host-leave"
	// HostJoin returns a departed host to the swarm from iteration Iter
	// onward.
	HostJoin Kind = "host-join"
	// Burst starts one cross-traffic flow of Param megabytes (1e6 bytes)
	// from host src to host dst — Target is "src>dst" — At seconds into
	// iteration Iter only: deterministic cross traffic for measuring
	// "under conditions of high load" (§I).
	Burst Kind = "burst"
)

// LinkTargetSep separates the two endpoint names of a trunk target
// ("a|b"); BurstTargetSep separates the source and destination host of a
// burst target ("src>dst").
const (
	LinkTargetSep  = "|"
	BurstTargetSep = ">"
)

// Event is one scripted change. Events are declarative and
// order-independent: the timeline sorts them by (Iter, At, declaration
// order) at compile time.
type Event struct {
	// Iter is the 1-based measurement iteration the event takes effect
	// in. Events beyond the run's iteration count never fire.
	Iter int `json:"iter"`
	// At is the event's offset in simulated seconds within iteration
	// Iter (0 = before the broadcast starts). Must be 0 for churn kinds.
	At float64 `json:"at_s,omitempty"`
	// Kind selects the event type.
	Kind Kind `json:"kind"`
	// Target names what the event acts on; the grammar depends on Kind
	// (see the Kind constants).
	Target string `json:"target"`
	// Param is the kind-specific parameter: the capacity factor for
	// LinkScale, megabytes for Burst, unused otherwise.
	Param float64 `json:"param,omitempty"`
}

// String renders the event compactly for error messages and logs.
func (e Event) String() string {
	s := fmt.Sprintf("iter %d %s %s", e.Iter, e.Kind, e.Target)
	if e.At > 0 {
		s += fmt.Sprintf(" at %gs", e.At)
	}
	if e.Param != 0 {
		s += fmt.Sprintf(" param %g", e.Param)
	}
	return s
}

// Binding resolves event targets against a compiled network. The scenario
// package builds one from a Spec; any caller wiring a network by hand can
// build one directly.
type Binding struct {
	// Links maps every addressable link target — class names and trunk
	// "a|b" keys (both orders) — to the vertex pairs it covers.
	Links map[string][][2]int
	// Hosts maps a host's display name to its dense host index (the
	// position in the hosts slice handed to core.Run).
	Hosts map[string]int
	// HostVertex maps a dense host index to its network vertex id.
	HostVertex []int
	// Iterations, when positive, is the measurement-iteration budget the
	// timeline will run under: Compile rejects events targeting a later
	// iteration, which would otherwise validate and then silently never
	// fire. Zero skips the check — a spec-level timeline is compiled
	// before any particular run's iteration count is known, and the same
	// timeline may legitimately run under several budgets.
	Iterations int
	// Capacity, when set, holds the starting capacity in bytes/s of each
	// link Links covers, keyed by its vertex pair lower id first: the
	// capacity Network.LinkCapacity reports before the timeline runs.
	// Compile then rejects a timeline whose link-scale factors take a
	// link's capacity out of (0, +Inf), which SetLinkCapacity refuses.
	Capacity map[[2]int]float64
}

// compiled is one resolved event.
type compiled struct {
	Event
	pairs    [][2]int // resolved link endpoints (link kinds)
	host     int      // dense host index (churn kinds)
	src, dst int      // host vertex ids (burst)
}

// Timeline is a compiled, validated event schedule. It is immutable after
// Compile and safe to share across goroutines.
type Timeline struct {
	events   []compiled
	numHosts int
	// churned marks hosts that appear in churn events, so ActiveHosts
	// can short-circuit for timelines without churn.
	hasChurn bool
}

// Compile resolves and validates events against the binding. It checks
// that every target resolves, parameters make sense, link up/down events
// pair correctly per link, host churn keeps at least two hosts in the
// swarm at all times and — when the binding carries an iteration budget —
// that every event can actually fire within it. The returned timeline is
// immutable.
func Compile(events []Event, b Binding) (*Timeline, error) {
	t := &Timeline{numHosts: len(b.HostVertex)}
	if len(events) == 0 {
		return t, nil
	}
	for i, e := range events {
		c := compiled{Event: e, host: -1}
		if e.Iter < 1 {
			return nil, fmt.Errorf("dynamics: event %d (%s): iter must be >= 1", i, e)
		}
		if e.At < 0 {
			return nil, fmt.Errorf("dynamics: event %d (%s): negative at_s", i, e)
		}
		if b.Iterations > 0 && e.Iter > b.Iterations {
			return nil, fmt.Errorf("dynamics: event %d (%s): iter %d is beyond the run's %d iterations and would never fire",
				i, e, e.Iter, b.Iterations)
		}
		switch e.Kind {
		case LinkScale, LinkDown, LinkUp:
			pairs, ok := b.Links[e.Target]
			if !ok || len(pairs) == 0 {
				return nil, fmt.Errorf("dynamics: event %d (%s): unknown link target %q (want a link-class name or a trunk %q)",
					i, e, e.Target, "a"+LinkTargetSep+"b")
			}
			c.pairs = pairs
			if e.Kind == LinkScale && !(e.Param > 0 && !math.IsInf(e.Param, 1)) {
				return nil, fmt.Errorf("dynamics: event %d (%s): link-scale needs a finite positive factor", i, e)
			}
		case HostLeave, HostJoin:
			if e.At != 0 {
				return nil, fmt.Errorf("dynamics: event %d (%s): churn takes effect at iteration boundaries; at_s must be 0", i, e)
			}
			h, ok := b.Hosts[e.Target]
			if !ok {
				return nil, fmt.Errorf("dynamics: event %d (%s): unknown host %q", i, e, e.Target)
			}
			c.host = h
			t.hasChurn = true
		case Burst:
			src, dst, ok := strings.Cut(e.Target, BurstTargetSep)
			if !ok {
				return nil, fmt.Errorf("dynamics: event %d (%s): burst target must be %q", i, e, "src"+BurstTargetSep+"dst")
			}
			hs, oks := b.Hosts[src]
			hd, okd := b.Hosts[dst]
			if !oks || !okd {
				return nil, fmt.Errorf("dynamics: event %d (%s): unknown burst host in %q", i, e, e.Target)
			}
			if hs == hd {
				return nil, fmt.Errorf("dynamics: event %d (%s): burst endpoints must differ", i, e)
			}
			if e.Param <= 0 {
				return nil, fmt.Errorf("dynamics: event %d (%s): burst needs a positive megabyte count", i, e)
			}
			c.src, c.dst = b.HostVertex[hs], b.HostVertex[hd]
		default:
			return nil, fmt.Errorf("dynamics: event %d: unknown kind %q", i, e.Kind)
		}
		t.events = append(t.events, c)
	}
	sort.SliceStable(t.events, func(i, j int) bool {
		a, b := t.events[i], t.events[j]
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.At < b.At
	})
	if err := t.checkLinkStates(); err != nil {
		return nil, err
	}
	if err := t.checkCapacities(b.Capacity); err != nil {
		return nil, err
	}
	if err := t.checkChurn(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkLinkStates replays link-down/link-up in timeline order and rejects
// redundant transitions (downing a down link, upping an up link), which
// are always scenario typos.
func (t *Timeline) checkLinkStates() error {
	down := make(map[[2]int]bool)
	for _, e := range t.events {
		switch e.Kind {
		case LinkDown:
			for _, p := range e.pairs {
				if down[norm(p)] {
					return fmt.Errorf("dynamics: %s: link already down", e.Event)
				}
				down[norm(p)] = true
			}
		case LinkUp:
			for _, p := range e.pairs {
				if !down[norm(p)] {
					return fmt.Errorf("dynamics: %s: link is not down", e.Event)
				}
				down[norm(p)] = false
			}
		}
	}
	return nil
}

// checkCapacities replays link-scale events in timeline order — the
// order Apply fires them in, so each product is exactly the capacity
// SetLinkCapacity would be handed — and rejects one that overflows to
// +Inf or underflows to 0. start holds each link's starting capacity; nil
// checks nothing.
func (t *Timeline) checkCapacities(start map[[2]int]float64) error {
	if start == nil {
		return nil
	}
	scaled := make(map[[2]int]float64)
	for _, e := range t.events {
		if e.Kind != LinkScale {
			continue
		}
		for _, p := range e.pairs {
			c, ok := scaled[norm(p)]
			if !ok {
				c = start[norm(p)]
			}
			c *= e.Param
			if !(c > 0 && !math.IsInf(c, 1)) {
				return fmt.Errorf("dynamics: %s: scales a link's capacity to %g bytes/s; it must stay finite and positive", e.Event, c)
			}
			scaled[norm(p)] = c
		}
	}
	return nil
}

// norm orders a vertex pair canonically, so "a|b" and "b|a" track the
// same link state.
func norm(p [2]int) [2]int {
	if p[0] > p[1] {
		return [2]int{p[1], p[0]}
	}
	return p
}

// checkChurn replays membership and rejects leaving an absent host,
// joining a present one, or shrinking the swarm below two hosts.
func (t *Timeline) checkChurn() error {
	absent := make(map[int]bool)
	active := t.numHosts
	for _, e := range t.events {
		switch e.Kind {
		case HostLeave:
			if absent[e.host] {
				return fmt.Errorf("dynamics: %s: host already left", e.Event)
			}
			absent[e.host] = true
			active--
			if active < 2 {
				return fmt.Errorf("dynamics: %s: churn leaves fewer than 2 hosts in the swarm", e.Event)
			}
		case HostJoin:
			if !absent[e.host] {
				return fmt.Errorf("dynamics: %s: host is not absent", e.Event)
			}
			absent[e.host] = false
			active++
		}
	}
	return nil
}

// Len returns the number of events in the timeline.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// NumHosts returns the host count the timeline was compiled against.
func (t *Timeline) NumHosts() int { return t.numHosts }

// ActiveHosts returns the dense host indices participating in iteration
// it (1-based), in ascending order, or nil when every host participates.
// The result is freshly allocated.
func (t *Timeline) ActiveHosts(it int) []int {
	if t == nil || !t.hasChurn {
		return nil
	}
	absent := make(map[int]bool)
	n := 0
	for _, e := range t.events {
		if e.Iter > it {
			break
		}
		switch e.Kind {
		case HostLeave:
			if !absent[e.host] {
				absent[e.host] = true
				n++
			}
		case HostJoin:
			if absent[e.host] {
				delete(absent, e.host)
				n--
			}
		}
	}
	if n == 0 {
		return nil
	}
	active := make([]int, 0, t.numHosts-n)
	for h := 0; h < t.numHosts; h++ {
		if !absent[h] {
			active = append(active, h)
		}
	}
	return active
}

// Apply installs the timeline's state for iteration it (1-based) on a
// replica fresh from Clone or Reset: the network state accumulated by link
// events of earlier iterations is applied immediately, and the events of
// iteration it itself are scheduled on eng at their At offsets, so they
// fire mid-broadcast. Bursts of earlier iterations are transient and are
// not replayed. Churn never touches the network; read it via ActiveHosts.
//
// Apply must be called once per iteration, before the iteration's
// broadcast starts, with the engine clock at zero. The network must be the
// replica the broadcast will run on (a clone of the network the timeline's
// binding was resolved against — vertex ids are preserved by Clone).
func (t *Timeline) Apply(it int, eng *sim.Engine, net *simnet.Network) {
	if t == nil {
		return
	}
	for _, e := range t.events {
		switch {
		case e.Iter < it:
			if e.Kind == Burst || e.host >= 0 {
				continue
			}
			t.fire(e, net)
		case e.Iter == it:
			if e.host >= 0 {
				continue
			}
			e := e
			eng.ScheduleAt(e.At, func() { t.fire(e, net) })
		}
	}
}

// fire executes one resolved event against net.
func (t *Timeline) fire(e compiled, net *simnet.Network) {
	switch e.Kind {
	case LinkScale:
		for _, p := range e.pairs {
			net.SetLinkCapacity(p[0], p[1], net.LinkCapacity(p[0], p[1])*e.Param)
		}
	case LinkDown:
		for _, p := range e.pairs {
			net.SetLinkState(p[0], p[1], false)
		}
	case LinkUp:
		for _, p := range e.pairs {
			net.SetLinkState(p[0], p[1], true)
		}
	case Burst:
		net.Send(e.src, e.dst, e.Param*1e6, 0, nil)
	}
}
