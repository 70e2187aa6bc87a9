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

// channel is the mutable half of one direction of a link; the static half
// is its link entry in the network's topo, under the same index.
type channel struct {
	// What the solver reads and writes per hop comes first so it shares
	// a cache line.
	eff       float64 // solver scratch: effectiveCapacity() as of this solve
	slack     float64 // solver scratch: saturationEps*(1+eff)
	usedFixed float64 // solver scratch: rate summed over fixed flows
	nUnfixed  int32   // solver scratch: flows not yet fixed
	saturated bool    // solver scratch: saturatedAt(level) for the current usedFixed/nUnfixed
	down      bool

	// Occupancy, kept current as flows activate and leave.
	nFlows int32 // active flows crossing the channel
	slot   int32 // index in Network.occupied while nFlows > 0

	capacity float64
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

// Network is a simulated network bound to a sim.Engine.
type Network struct {
	eng *sim.Engine
	// topo is everything Connect fixed and no run changes; a network and
	// every Clone of it share one.
	topo *topo
	// chans holds the channels in Connect order — the k-th link is channel
	// 2k (a to b) and 2k+1 (b to a) — chanChunk to a chunk, so that Connect
	// never moves one a flow points at. A clone's chunks are consecutive
	// views of one slab.
	chans [][]channel

	flows        []*Flow
	freeFlows    []*Flow    // finished Send flows, reused by the next Send
	flowSlab     []Flow     // what newFlow has not handed out of its last chunk
	occupied     []*channel // channels with nFlows > 0, unordered
	pendingFlows int
	nextFlow     int
	lastSolve    float64
	dirty        bool
	// The network's two events, re-armed for every solve and after it.
	resolveEv, complEv *sim.Event

	// The topo's routes as pointers into chans, materialised per (src,
	// dst) on first use; flows share them read-only.
	paths     []srcPaths   // by source vertex
	hopChunks [][]*channel // the routes' storage, hopChunk pointers each (or one longer route)
	hopsUsed  int          // pointers of hopChunks handed out or skipped

	// scratch reused across solves and completion events
	chanScratch []*channel
	flowScratch []*Flow
	finished    []*Flow
	solves      uint64
	// flowsSolved counts the flows every solve started from. Nothing
	// reads it but the tests' scaling benchmark.
	flowsSolved uint64
}

// srcPaths is one source's materialised routes.
type srcPaths struct {
	routes *routeSet
	at     []int32 // by destination: 1 + where the route starts in hopChunks, 0 = not materialised
}

const (
	chanChunk = 64      // channels per chunk of Network.chans; even, so a link never straddles two
	hopChunk  = 1 << 12 // route hops a Network allocates at a time
	flowChunk = 64      // Flows newFlow carves from one allocation
)

// channel returns the channel with the given index.
func (n *Network) channel(id int32) *channel { return &n.chans[id/chanChunk][id%chanChunk] }

// New returns an empty network using the given engine for time.
func New(eng *sim.Engine) *Network { return newNetwork(eng, &topo{}) }

func newNetwork(eng *sim.Engine, t *topo) *Network {
	n := &Network{eng: eng, topo: t}
	n.resolveEv = eng.NewTimer(n.resolve)
	n.complEv = eng.NewTimer(n.completions)
	return n
}

// editTopo returns the topology for a change to the vertex or link set:
// a private copy if a Clone shares the current one, and in either case with
// no routes — neither the shared table's nor the ones n materialised.
func (n *Network) editTopo() *topo {
	n.topo = n.topo.forEdit()
	n.paths, n.hopChunks, n.hopsUsed = nil, nil, 0
	return n.topo
}

// Engine returns the simulation engine the network is bound to.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Solves returns the number of bandwidth re-allocations performed, an
// instrumentation hook for the complexity experiments.
func (n *Network) Solves() uint64 { return n.solves }

// AddHost adds a host vertex and returns its id. Hosts are valid flow
// endpoints.
func (n *Network) AddHost(name string) int {
	t := n.editTopo()
	t.verts = append(t.verts, vertex{name: name, isHost: true})
	return len(t.verts) - 1
}

// AddSwitch adds a switch vertex and returns its id. Switches forward
// flows but cannot terminate them.
func (n *Network) AddSwitch(name string) int {
	t := n.editTopo()
	t.verts = append(t.verts, vertex{name: name})
	return len(t.verts) - 1
}

// Name returns the name of vertex v.
func (n *Network) Name(v int) string { return n.topo.verts[v].name }

// IsHost reports whether vertex v is a host.
func (n *Network) IsHost(v int) bool { return n.topo.verts[v].isHost }

// Connect joins vertices a and b with a full-duplex link.
func (n *Network) Connect(a, b int, spec LinkSpec) {
	if a == b {
		panic("simnet: cannot connect a vertex to itself")
	}
	n.checkVert(a)
	n.checkVert(b)
	if !(spec.Capacity > 0 && spec.Capacity < math.Inf(1)) {
		panic(fmt.Sprintf("simnet: link %s-%s needs finite positive capacity", n.Name(a), n.Name(b)))
	}
	if spec.Latency < 0 || spec.PerFlowCap < 0 {
		panic("simnet: negative latency or per-flow cap")
	}
	t := n.editTopo()
	id := int32(len(t.links))
	if id%chanChunk == 0 {
		n.chans = append(n.chans, make([]channel, 0, chanChunk))
	}
	last := &n.chans[len(n.chans)-1]
	*last = append(*last, channel{capacity: spec.Capacity}, channel{capacity: spec.Capacity})
	t.links = append(t.links,
		link{from: int32(a), to: int32(b), latency: spec.Latency, perFlowCap: spec.PerFlowCap},
		link{from: int32(b), to: int32(a), latency: spec.Latency, perFlowCap: spec.PerFlowCap})
	t.verts[a].out = append(t.verts[a].out, id)
	t.verts[b].out = append(t.verts[b].out, id+1)
}

func (n *Network) checkVert(v int) {
	if v < 0 || v >= len(n.topo.verts) {
		panic(fmt.Sprintf("simnet: vertex %d out of range", v))
	}
}

// route returns the hop-count shortest path from src to the host dst twice
// over: as channel indices, shared by every network of this topology, and
// as pointers into n's own channels, which is what flows walk. Ties are
// broken deterministically by vertex insertion order. The index route comes
// from the topology's route table, computed once per source for all
// replicas; the pointer route is materialised on n's first use of the pair.
// Callers must modify neither slice.
func (n *Network) route(src, dst int) ([]int32, []*channel) {
	if uint(src) >= uint(len(n.paths)) || uint(dst) >= uint(len(n.paths[src].at)) || n.paths[src].at[dst] == 0 {
		n.materialise(src, dst)
	}
	sp := &n.paths[src]
	ids, at := sp.routes.to(dst), int(sp.at[dst]-1)
	return ids, n.hopChunks[at/hopChunk][at%hopChunk:][:len(ids):len(ids)]
}

// materialise stores the route from src to the host dst as pointers, or
// panics if there is none.
func (n *Network) materialise(src, dst int) {
	n.checkVert(src)
	n.checkVert(dst)
	if src == dst {
		panic("simnet: flow endpoints must differ")
	}
	if n.paths == nil {
		n.paths = make([]srcPaths, len(n.topo.verts))
	}
	sp := &n.paths[src]
	if sp.at == nil {
		sp.routes, sp.at = n.topo.routesFrom(src), make([]int32, len(n.topo.verts))
	}
	ids := sp.routes.to(dst)
	if len(ids) == 0 {
		panic(fmt.Sprintf("simnet: no route from %s to host %s", n.Name(src), n.Name(dst)))
	}
	// A route never straddles chunks: one that does not fit what is left of
	// the last chunk starts the next, which a route longer than hopChunk has
	// to itself (room is then negative, and the route after it moves on).
	if room := len(n.hopChunks)*hopChunk - n.hopsUsed; len(ids) > room {
		n.hopsUsed += room
		n.hopChunks = append(n.hopChunks, make([]*channel, max(hopChunk, len(ids))))
	}
	at := n.hopsUsed
	n.hopsUsed += len(ids)
	sp.at[dst] = int32(at + 1)
	for i, id := range ids {
		n.hopChunks[at/hopChunk][at%hopChunk+i] = n.channel(id)
	}
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
// Routes end at hosts: Path panics if dst is a switch.
func (n *Network) Path(src, dst int) PathInfo {
	ids, chans := n.route(src, dst)
	info := PathInfo{Hops: len(chans), Capacity: math.Inf(1)}
	for i, c := range chans {
		l := &n.topo.links[ids[i]]
		info.Latency += l.latency
		cap := c.effectiveCapacity()
		if l.perFlowCap > 0 && l.perFlowCap < cap {
			cap = l.perFlowCap
		}
		if cap < info.Capacity {
			info.Capacity = cap
		}
	}
	return info
}

// linkChannel returns the first channel from a to b. It panics if a and b
// are not linked — the shared contract of all link mutators and getters.
func (n *Network) linkChannel(a, b int) *channel {
	n.checkVert(a)
	n.checkVert(b)
	for _, id := range n.topo.verts[a].out {
		if int(n.topo.links[id].to) == b {
			return n.channel(id)
		}
	}
	panic(fmt.Sprintf("simnet: no link between %s and %s", n.Name(a), n.Name(b)))
}

// eachLinkChannel calls set on every channel of the (possibly parallel)
// links between a and b, both directions, and panics like linkChannel.
func (n *Network) eachLinkChannel(a, b int, set func(c *channel)) {
	n.linkChannel(a, b)
	for _, id := range n.topo.verts[a].out {
		if int(n.topo.links[id].to) == b {
			set(n.channel(id))
			set(n.channel(id ^ 1)) // the same link's other direction
		}
	}
}

// SetLinkCapacity changes the capacity (both directions) of the link
// between a and b while the simulation runs, re-allocating all active
// flows immediately. It models dynamically altering underlying topology —
// overlay networks, virtual machines migrating, hardware degradation —
// which the paper names as a natural fit for this tomography method (§V).
// It panics if no such link exists or the capacity is not finite and
// positive.
func (n *Network) SetLinkCapacity(a, b int, capacity float64) {
	if !(capacity > 0 && capacity < math.Inf(1)) {
		panic("simnet: link capacity must be finite and positive")
	}
	n.eachLinkChannel(a, b, func(c *channel) { c.capacity = capacity })
	// Accrue progress under the old rates, then re-solve.
	n.advance()
	n.markDirty()
}

// LinkCapacity returns the configured capacity of the link between a and
// b (the value Connect or SetLinkCapacity last set, regardless of up/down
// state). It panics if no such link exists.
func (n *Network) LinkCapacity(a, b int) float64 {
	return n.linkChannel(a, b).capacity
}

// LinkUp reports whether the link between a and b is up. It panics if no
// such link exists.
func (n *Network) LinkUp(a, b int) bool {
	return !n.linkChannel(a, b).down
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
	n.eachLinkChannel(a, b, func(c *channel) { c.down = !up })
	// Accrue progress under the old rates, then re-solve.
	n.advance()
	n.markDirty()
}

// Clone returns an independent replica of the network bound to eng: the
// same topology — vertices, links, latencies, per-flow caps and the route
// table, all immutable and shared by pointer — under its own copy of what
// a run can change, every channel's capacity (SetLinkCapacity) and up/down
// state (SetLinkState). Mutating a clone's links never affects the original
// or sibling clones (the invariant the dynamics replay depends on, asserted
// in TestCloneSharesNoMutableLinkState), and a later AddHost, AddSwitch or
// Connect on either side moves that side to a topology of its own. Dynamic
// state does not carry over: the clone starts with no flows, no channel
// occupancy, no materialised routes and zeroed utilisation counters; a route
// any network of the topology has already computed costs it no BFS. Clone
// is the replication primitive behind parallel tomography
// (core.Options.Workers): each worker measures on its own engine+network
// replica, and clones of one idle network may be taken and used from
// different goroutines. It panics if the network has active flows, because
// in-flight fluid state cannot be replayed onto a fresh engine. Flows whose
// activation is still pending (started, latency not yet elapsed) count as
// in-flight too.
func (n *Network) Clone(eng *sim.Engine) *Network {
	n.mustBeIdle()
	n.topo.shared.Store(true)
	c := newNetwork(eng, n.topo)
	slab := make([]channel, len(n.chans)*chanChunk)
	c.chans = make([][]channel, len(n.chans))
	for i, chunk := range n.chans {
		c.chans[i] = slab[i*chanChunk : i*chanChunk+len(chunk) : (i+1)*chanChunk]
	}
	c.takeLinkState(n)
	return c
}

// takeLinkState sets every channel to src's capacity and up/down state
// with no occupancy.
func (n *Network) takeLinkState(src *Network) {
	for i, chunk := range n.chans {
		for j := range chunk {
			from := &src.chans[i][j]
			chunk[j] = channel{capacity: from.capacity, down: from.down}
		}
	}
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
// compound) and its occupancy zeroed — while keeping what is expensive to
// rebuild and independent of all that: the routes n has materialised and
// the engine's and network's free lists. Whatever was
// still in flight is dropped without its callbacks running; handles to it
// stay valid no-ops. Like Clone it panics if src is not idle.
func (n *Network) Reset(src *Network) {
	src.mustBeIdle()
	if n.topo != src.topo {
		panic("simnet: Reset from a network with a different topology")
	}
	n.eng.Reset()
	n.takeLinkState(src)
	for i, f := range n.flows {
		f.slot, f.active, f.cancelled = -1, false, !f.pooled
		n.recycle(f)
		n.flows[i] = nil
	}
	n.flows = n.flows[:0]
	clear(n.occupied)
	n.occupied = n.occupied[:0]
	n.pendingFlows, n.nextFlow, n.lastSolve, n.dirty, n.solves, n.flowsSolved = 0, 0, 0, false, 0, 0
}

// FindVertex returns the id of the vertex with the given name, or -1.
func (n *Network) FindVertex(name string) int {
	for i, v := range n.topo.verts {
		if v.name == name {
			return i
		}
	}
	return -1
}
