// Package simnet is a discrete-event fluid network simulator. It stands in
// for the physical Grid'5000 testbed used by the paper.
//
// The model: a network is a graph of hosts and switches joined by
// full-duplex links. A transfer is a fluid flow of a given byte size along
// the (hop-count) shortest path between two hosts. Whenever the set of
// active flows changes, link bandwidth is re-allocated with progressive
// filling, which yields the max-min fair allocation — the standard fluid
// approximation of many concurrent TCP streams, and the same model family
// used by SimGrid, on which the related tomography work evaluated.
//
// Two refinements matter for reproducing the paper:
//
//   - Each directed link channel has a capacity (aggregate bytes/s), so a
//     1 GbE inter-switch bottleneck saturates under collective traffic
//     exactly as in §IV-B of the paper.
//   - A link may also carry a per-flow rate cap, modelling the observation
//     that a single stream across the Renater WAN tops out below the local
//     Ethernet rate (787 vs 890 Mbit/s, §IV-A) even though the backbone
//     aggregate is 10 Gbit/s.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Mbps converts megabits per second to the simulator's native bytes per
// second.
func Mbps(v float64) float64 { return v * 1e6 / 8 }

// Gbps converts gigabits per second to bytes per second.
func Gbps(v float64) float64 { return v * 1e9 / 8 }

// ToMbps converts bytes per second back to megabits per second.
func ToMbps(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e6 }

// LinkSpec describes one full-duplex link.
type LinkSpec struct {
	// Capacity is the usable bandwidth of each direction in bytes/s.
	// Protocol efficiency is folded in: a 1 GbE link that delivers
	// 890 Mbit/s of application payload should be declared as Mbps(890).
	Capacity float64
	// Latency is the one-way propagation delay in seconds. It is paid
	// once per flow, at start.
	Latency float64
	// PerFlowCap, when non-zero, limits the rate of every individual
	// flow crossing the link, independent of the aggregate capacity.
	PerFlowCap float64
}

// channel is one direction of a link.
type channel struct {
	// What the solver reads and writes per hop comes first so it shares
	// a cache line.
	capacity  float64
	usedFixed float64 // solver scratch: rate summed over fixed flows
	nUnfixed  int     // solver scratch: flows not yet fixed
	down      bool
	saturated bool // solver scratch: saturatedAt(level) for the current usedFixed/nUnfixed

	// Occupancy, kept current as flows activate and leave.
	nFlows int // active flows crossing the channel
	slot   int // index in Network.occupied while nFlows > 0

	// carried is the total bytes moved by flows that have left the
	// channel; LinkUtilization adds the progress of those still on it.
	carried float64

	from, to   int
	latency    float64
	perFlowCap float64
}

// effectiveCapacity is the capacity the bandwidth solver sees: zero while
// the link is failed (SetLinkState), the configured capacity otherwise.
// The configured capacity is retained across a down/up cycle.
func (c *channel) effectiveCapacity() float64 {
	if c.down {
		return 0
	}
	return c.capacity
}

type vertex struct {
	name   string
	isHost bool
	chans  []*channel // outgoing
}

// Network is a simulated network bound to a sim.Engine.
type Network struct {
	eng   *sim.Engine
	verts []vertex

	flows        []*Flow
	freeFlows    []*Flow    // finished Send flows, reused by the next Send
	occupied     []*channel // channels with nFlows > 0, unordered
	pendingFlows int
	nextFlow     int
	lastSolve    float64
	dirty        bool
	// The network's two events, re-armed for every solve and after it.
	resolveEv, complEv *sim.Event

	routeCache map[int][]int32       // src -> prev-vertex array from BFS
	pathCache  map[[2]int][]*channel // (src, dst) -> route; shared read-only by flows

	// scratch reused across solves and completion events
	chanScratch []*channel
	flowScratch []*Flow
	finished    []*Flow
	solves      uint64
}

// New returns an empty network using the given engine for time.
func New(eng *sim.Engine) *Network {
	n := &Network{
		eng:        eng,
		routeCache: make(map[int][]int32),
		pathCache:  make(map[[2]int][]*channel),
	}
	n.resolveEv = eng.NewTimer(n.resolve)
	n.complEv = eng.NewTimer(n.completions)
	return n
}

// invalidateRoutes drops every cached BFS tree and route; any change to
// the vertex or link set calls it.
func (n *Network) invalidateRoutes() {
	clear(n.routeCache)
	clear(n.pathCache)
}

// Engine returns the simulation engine the network is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Solves returns the number of bandwidth re-allocations performed, an
// instrumentation hook for the complexity experiments.
func (n *Network) Solves() uint64 { return n.solves }

// AddHost adds a host vertex and returns its id. Hosts are valid flow
// endpoints.
func (n *Network) AddHost(name string) int {
	n.verts = append(n.verts, vertex{name: name, isHost: true})
	n.invalidateRoutes()
	return len(n.verts) - 1
}

// AddSwitch adds a switch vertex and returns its id. Switches forward
// flows but cannot terminate them.
func (n *Network) AddSwitch(name string) int {
	n.verts = append(n.verts, vertex{name: name})
	n.invalidateRoutes()
	return len(n.verts) - 1
}

// NumVertices returns the total number of hosts and switches.
func (n *Network) NumVertices() int { return len(n.verts) }

// Name returns the name of vertex v.
func (n *Network) Name(v int) string { return n.verts[v].name }

// IsHost reports whether vertex v is a host.
func (n *Network) IsHost(v int) bool { return n.verts[v].isHost }

// Connect joins vertices a and b with a full-duplex link.
func (n *Network) Connect(a, b int, spec LinkSpec) {
	if a == b {
		panic("simnet: cannot connect a vertex to itself")
	}
	n.checkVert(a)
	n.checkVert(b)
	if spec.Capacity <= 0 {
		panic(fmt.Sprintf("simnet: link %s-%s needs positive capacity", n.verts[a].name, n.verts[b].name))
	}
	if spec.Latency < 0 || spec.PerFlowCap < 0 {
		panic("simnet: negative latency or per-flow cap")
	}
	ab := &channel{from: a, to: b, capacity: spec.Capacity, latency: spec.Latency, perFlowCap: spec.PerFlowCap}
	ba := &channel{from: b, to: a, capacity: spec.Capacity, latency: spec.Latency, perFlowCap: spec.PerFlowCap}
	n.verts[a].chans = append(n.verts[a].chans, ab)
	n.verts[b].chans = append(n.verts[b].chans, ba)
	n.invalidateRoutes()
}

func (n *Network) checkVert(v int) {
	if v < 0 || v >= len(n.verts) {
		panic(fmt.Sprintf("simnet: vertex %d out of range", v))
	}
}

// path returns the channel sequence of the hop-count shortest path from
// src to dst, computing and caching a BFS tree per source and the route
// per (src, dst). Ties are broken deterministically by vertex insertion
// order. Callers must not modify the returned slice.
func (n *Network) path(src, dst int) []*channel {
	if p, ok := n.pathCache[[2]int{src, dst}]; ok {
		return p
	}
	n.checkVert(src)
	n.checkVert(dst)
	if src == dst {
		panic("simnet: flow endpoints must differ")
	}
	prev, ok := n.routeCache[src]
	if !ok {
		prev = n.bfs(src)
		n.routeCache[src] = prev
	}
	if prev[dst] == -1 {
		panic(fmt.Sprintf("simnet: no route from %s to %s", n.verts[src].name, n.verts[dst].name))
	}
	// Walk dst -> src, filling the route from its last hop backwards.
	hops := 0
	for at := dst; at != src; at = int(prev[at]) {
		hops++
	}
	route := make([]*channel, hops)
	at := dst
	for i := hops - 1; i >= 0; i-- {
		p := int(prev[at])
		var ch *channel
		for _, c := range n.verts[p].chans {
			if c.to == at {
				ch = c
				break
			}
		}
		if ch == nil {
			panic("simnet: route cache inconsistent with topology")
		}
		route[i] = ch
		at = p
	}
	n.pathCache[[2]int{src, dst}] = route
	return route
}

func (n *Network) bfs(src int) []int32 {
	prev := make([]int32, len(n.verts))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = int32(src)
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range n.verts[v].chans {
			if prev[c.to] == -1 {
				prev[c.to] = int32(v)
				queue = append(queue, c.to)
			}
		}
	}
	prev[src] = -1 // no predecessor for the root itself
	return prev
}

// PathInfo describes the static properties of the route between two hosts.
type PathInfo struct {
	Hops     int
	Latency  float64 // one-way, seconds
	Capacity float64 // single-flow bottleneck bytes/s (per-flow caps applied)
}

// Path returns static route information between two hosts. Capacity is
// what one lone flow would achieve: the minimum over the path of link
// capacity and per-flow cap. This is the simulator's ground-truth
// point-to-point bandwidth, the quantity NetPIPE measures in the paper.
func (n *Network) Path(src, dst int) PathInfo {
	chans := n.path(src, dst)
	info := PathInfo{Hops: len(chans), Capacity: math.Inf(1)}
	for _, c := range chans {
		info.Latency += c.latency
		cap := c.effectiveCapacity()
		if c.perFlowCap > 0 && c.perFlowCap < cap {
			cap = c.perFlowCap
		}
		if cap < info.Capacity {
			info.Capacity = cap
		}
	}
	return info
}

// linkChannels returns every channel of the (possibly parallel) links
// between a and b, both directions. It panics if no such link exists —
// the shared contract of all link mutators and getters.
func (n *Network) linkChannels(a, b int) []*channel {
	n.checkVert(a)
	n.checkVert(b)
	var chans []*channel
	for _, c := range n.verts[a].chans {
		if c.to == b {
			chans = append(chans, c)
		}
	}
	for _, c := range n.verts[b].chans {
		if c.to == a {
			chans = append(chans, c)
		}
	}
	if len(chans) == 0 {
		panic(fmt.Sprintf("simnet: no link between %s and %s", n.verts[a].name, n.verts[b].name))
	}
	return chans
}

// SetLinkCapacity changes the capacity (both directions) of the link
// between a and b while the simulation runs, re-allocating all active
// flows immediately. It models dynamically altering underlying topology —
// overlay networks, virtual machines migrating, hardware degradation —
// which the paper names as a natural fit for this tomography method (§V).
// It panics if no such link exists or the capacity is not positive.
func (n *Network) SetLinkCapacity(a, b int, capacity float64) {
	if capacity <= 0 {
		panic("simnet: link capacity must be positive")
	}
	for _, c := range n.linkChannels(a, b) {
		c.capacity = capacity
	}
	// Accrue progress under the old rates, then re-solve.
	n.advance()
	n.markDirty()
}

// LinkCapacity returns the configured capacity of the link between a and
// b (the value Connect or SetLinkCapacity last set, regardless of up/down
// state). It panics if no such link exists.
func (n *Network) LinkCapacity(a, b int) float64 {
	return n.linkChannels(a, b)[0].capacity
}

// LinkUp reports whether the link between a and b is up. It panics if no
// such link exists.
func (n *Network) LinkUp(a, b int) bool {
	return !n.linkChannels(a, b)[0].down
}

// SetLinkState fails (up=false) or restores (up=true) the link between a
// and b while the simulation runs. Routing is static — a hop-count
// shortest path is chosen when a flow starts — so flows crossing a failed
// link are not rerouted: they stall at rate zero and resume, with their
// remaining bytes intact, when the link comes back up. New flows keep
// routing over the failed link and stall the same way, which models a
// failure that blackholes traffic until repair rather than a topology
// withdrawal. The configured capacity survives a down/up cycle. It panics
// if no such link exists; setting the current state again is a no-op.
func (n *Network) SetLinkState(a, b int, up bool) {
	for _, c := range n.linkChannels(a, b) {
		c.down = !up
	}
	// Accrue progress under the old rates, then re-solve.
	n.advance()
	n.markDirty()
}

// Clone returns an independent copy of the network's static topology —
// vertices, links, capacities, latencies and per-flow caps — bound to eng.
// Dynamic state does not carry over: the clone starts with no flows, no
// channel occupancy, empty route and path caches and zeroed utilisation
// counters. Clone is the replication primitive behind parallel tomography
// (core.Options.Workers): each worker measures on its own engine+network
// replica. It panics if the network has active flows, because in-flight
// fluid state cannot be replayed onto a fresh engine. Flows whose
// activation is still pending (started, latency not yet elapsed) count as
// in-flight too.
func (n *Network) Clone(eng *sim.Engine) *Network {
	n.mustBeIdle()
	c := New(eng)
	c.verts = make([]vertex, len(n.verts))
	for i, v := range n.verts {
		c.verts[i] = vertex{name: v.name, isHost: v.isHost}
	}
	// Channels are copied per direction so capacities changed at runtime
	// with SetLinkCapacity — and link failures set with SetLinkState —
	// survive the copy. Each clone gets its own channel structs: mutating
	// a clone's links never affects the original or sibling clones (the
	// invariant the dynamics replay depends on, asserted in
	// TestCloneSharesNoMutableLinkState).
	for i, v := range n.verts {
		for _, ch := range v.chans {
			c.verts[i].chans = append(c.verts[i].chans, &channel{
				from:       ch.from,
				to:         ch.to,
				capacity:   ch.capacity,
				latency:    ch.latency,
				perFlowCap: ch.perFlowCap,
				down:       ch.down,
			})
		}
	}
	return c
}

func (n *Network) mustBeIdle() {
	if len(n.flows) > 0 || n.pendingFlows > 0 {
		panic(fmt.Sprintf("simnet: cannot replicate a network with %d active and %d pending flows",
			len(n.flows), n.pendingFlows))
	}
}

// Reset puts n, a Clone of src, and the engine it is bound to back into the
// state src.Clone on a new engine would produce — clock, flow ids and solve
// count at zero, nothing queued, no flows, every channel's capacity and
// up/down state taken from src (not from n's own history, so scales never
// compound) and its occupancy and carried bytes zeroed — while keeping what
// is expensive to rebuild and independent of all that: the route and path
// caches and the engine's and network's free lists. Whatever was still in
// flight is dropped without its callbacks running; handles to it stay
// valid no-ops. Like Clone it panics if src is not idle.
func (n *Network) Reset(src *Network) {
	src.mustBeIdle()
	if len(n.verts) != len(src.verts) {
		panic("simnet: Reset from a network with a different topology")
	}
	n.eng.Reset()
	for i := range n.verts {
		from := src.verts[i].chans
		if len(n.verts[i].chans) != len(from) {
			panic("simnet: Reset from a network with a different topology")
		}
		for j, c := range n.verts[i].chans {
			c.capacity, c.down = from[j].capacity, from[j].down
			c.nFlows, c.slot, c.carried = 0, 0, 0
		}
	}
	for i, f := range n.flows {
		f.slot, f.active, f.cancelled = -1, false, !f.pooled
		n.recycle(f)
		n.flows[i] = nil
	}
	n.flows = n.flows[:0]
	clear(n.occupied)
	n.occupied = n.occupied[:0]
	n.pendingFlows, n.nextFlow, n.lastSolve, n.dirty, n.solves = 0, 0, 0, false, 0
}

// FindVertex returns the id of the vertex with the given name, or -1.
func (n *Network) FindVertex(name string) int {
	for i, v := range n.verts {
		if v.name == name {
			return i
		}
	}
	return -1
}

// LinkUtilization reports total bytes carried per directed channel, keyed
// by "from->to" vertex names. Active flows count with their progress as of
// the last allocation point.
func (n *Network) LinkUtilization() map[string]float64 {
	key := func(c *channel) string { return n.verts[c.from].name + "->" + n.verts[c.to].name }
	out := make(map[string]float64)
	for _, v := range n.verts {
		for _, c := range v.chans {
			out[key(c)] = c.carried
		}
	}
	for _, f := range n.flows {
		for _, c := range f.path {
			out[key(c)] += f.size - f.remaining
		}
	}
	return out
}
