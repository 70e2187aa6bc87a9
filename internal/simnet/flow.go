package simnet

import (
	"math"

	"repro/internal/sim"
)

// completionEps is the base residual byte count below which a flow is
// treated as finished. The effective threshold is relative to flow size
// (completionEps + 1e-9*size): repeated progress updates accumulate
// floating-point drift proportional to the bytes moved, and an absolute
// epsilon would strand multi-gigabyte flows a few micro-bytes short of
// completion, wedging the completion event in an infinitesimal loop.
const completionEps = 1e-6

// Flow is an in-flight fluid transfer between two hosts.
type Flow struct {
	// What every solve and progress update touches comes first so it
	// shares a cache line.
	rate      float64
	cap       float64 // per-flow cap from the path (0 = none)
	path      []*channel
	remaining float64
	eps       float64 // completion threshold for this flow

	id        int
	size      float64
	done      sim.Handler // told when the last byte arrives
	started   float64     // time the flow became active (after latency)
	slot      int         // index in Network.flows, -1 when inactive
	active    bool
	cancelled bool

	// pooled marks a flow started by Send: no handle to it exists, so the
	// network recycles it once it has finished. A flow a caller can still
	// name (StartFlow*) is never recycled — CancelFlow on a stale handle
	// must stay a no-op forever.
	pooled bool
	net    *Network // the network that carved it
}

// activation is a Flow as the engine sees it once its path latency has
// elapsed: the network posts the flow itself, not a closure over it.
type activation Flow

func (a *activation) Fire() { a.net.activate((*Flow)(a)) }

// Size returns the flow's total byte size.
func (f *Flow) Size() float64 { return f.size }

// StartFlow begins a transfer of size bytes from host src to host dst and
// invokes done (if non-nil) when the last byte arrives. The flow becomes
// active after the one-way path latency. It returns the flow handle, which
// may be cancelled.
func (n *Network) StartFlow(src, dst int, size float64, done func()) *Flow {
	return n.StartFlowRateLimited(src, dst, size, 0, done)
}

// StartFlowRateLimited is StartFlow with an additional per-flow rate cap
// in bytes/s (0 means uncapped). The effective cap is the minimum of this
// value and any per-flow caps on the links of the path. Protocols use it
// to model sender-side windowing: a transfer whose sender keeps w bytes
// outstanding on a path with round-trip time rtt cannot exceed w/rtt
// regardless of link capacity.
func (n *Network) StartFlowRateLimited(src, dst int, size, rateCap float64, done func()) *Flow {
	f := n.newFlow()
	if done != nil {
		f.done = sim.Func(done)
	}
	n.start(f, src, dst, size, rateCap)
	return f
}

// Send is StartFlowRateLimited for a transfer nobody will cancel: it
// returns no handle, so the network reuses the flow's storage once the last
// byte has arrived and a warm Send allocates nothing. done (if non-nil) is
// fired when the last byte arrives; it is a sim.Handler, so a caller with
// many connections hands in a pointer into storage it already owns.
func (n *Network) Send(src, dst int, size, rateCap float64, done sim.Handler) {
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = n.newFlow()
		f.pooled = true
	}
	f.done = done
	n.start(f, src, dst, size, rateCap)
}

// newFlow carves a zero Flow from the network's slab.
func (n *Network) newFlow() *Flow {
	if len(n.flowSlab) == 0 {
		n.flowSlab = make([]Flow, flowChunk)
	}
	f := &n.flowSlab[0]
	n.flowSlab = n.flowSlab[1:]
	f.net = n
	return f
}

// start validates and routes f and schedules its activation one path
// latency from now.
func (n *Network) start(f *Flow, src, dst int, size, rateCap float64) {
	if !n.IsHost(src) || !n.IsHost(dst) {
		panic("simnet: flows must connect hosts")
	}
	if size <= 0 {
		panic("simnet: flow size must be positive")
	}
	if rateCap < 0 {
		panic("simnet: negative rate cap")
	}
	ids, p := n.route(src, dst)
	f.id = n.nextFlow
	f.size, f.remaining, f.eps = size, size, completionEps+float64(1e-9*size)
	f.path, f.rate = p, 0
	n.nextFlow++
	var lat float64
	capPF := rateCap
	for _, id := range ids {
		l := &n.topo.links[id]
		lat += l.latency
		if l.perFlowCap > 0 && (capPF == 0 || l.perFlowCap < capPF) {
			capPF = l.perFlowCap
		}
	}
	f.cap = capPF
	f.slot = -1
	n.pendingFlows++
	n.eng.Post(lat, (*activation)(f))
}

// activate puts f on its channels once its path latency has elapsed.
func (n *Network) activate(f *Flow) {
	n.pendingFlows--
	if f.cancelled {
		return
	}
	n.advance()
	f.active = true
	f.started = n.eng.Now()
	f.slot = len(n.flows)
	n.flows = append(n.flows, f)
	for _, c := range f.path {
		if c.nFlows == 0 {
			c.slot = int32(len(n.occupied))
			n.occupied = append(n.occupied, c)
		}
		c.nFlows++
	}
	n.markDirty()
}

// CancelFlow aborts a flow. Its done callback will not run. Cancelling a
// finished or already-cancelled flow is a no-op.
func (n *Network) CancelFlow(f *Flow) {
	if f == nil || f.cancelled {
		return
	}
	f.cancelled = true
	if f.active {
		n.advance()
		n.removeFlow(f)
		n.markDirty()
	}
}

// ActiveFlows returns the number of currently active flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// PendingFlows returns the number of flows that have been started but are
// not yet active because their path-latency delay has not elapsed (their
// activation event is still queued on the engine). Cancelled-but-unfired
// activations are counted until their event drains. Together with
// ActiveFlows it tells whether the network is truly idle — the
// precondition for Clone.
func (n *Network) PendingFlows() int { return n.pendingFlows }

// removeFlow drops f from the active set with a swap-remove and releases
// its channels' occupancy.
func (n *Network) removeFlow(f *Flow) {
	last := len(n.flows) - 1
	moved := n.flows[last]
	n.flows[f.slot] = moved
	moved.slot = f.slot
	n.flows[last] = nil
	n.flows = n.flows[:last]
	f.slot = -1
	f.active = false
	for _, c := range f.path {
		c.nFlows--
		if c.nFlows == 0 {
			end := len(n.occupied) - 1
			tail := n.occupied[end]
			n.occupied[c.slot] = tail
			tail.slot = c.slot
			n.occupied[end] = nil
			n.occupied = n.occupied[:end]
		}
	}
}

// advance accrues progress on all active flows from the last allocation
// point to now, using the current rates.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now - n.lastSolve
	if dt <= 0 {
		n.lastSolve = now
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
	}
	n.lastSolve = now
}

// markDirty schedules a single re-allocation for the current instant, so
// any number of flow starts/finishes at one timestamp cost one solve.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.eng.Reschedule(n.resolveEv, 0)
}

func (n *Network) resolve() {
	n.dirty = false
	n.advance()
	n.solve()
	n.scheduleCompletion()
}

// saturationEps is the relative slack within which a constraint counts as
// binding; it absorbs float error when several constraints bind together.
const saturationEps = 1e-9

// room is the capacity left on the channel once its unfixed flows all run
// at level. It reads the effective capacity solve stored in the channel.
func (c *channel) room(level float64) float64 {
	return c.eff - c.usedFixed - float64(level*float64(c.nUnfixed))
}

// saturatedAt reports whether the channel has no room left at level.
func (c *channel) saturatedAt(level float64) bool {
	return c.room(level) <= c.slack
}

// solve computes the max-min fair allocation via progressive filling with
// per-flow caps: all unfixed flows rise at the same rate; the first
// constraint to bind (a saturated channel or a flow's cap) fixes the flows
// it governs; repeat.
//
// Each round touches only the flows still unfixed and the channels still
// carrying one, and what a solve cannot change — a channel's effective
// capacity and saturation slack, the lowest cap among the unfixed flows —
// is computed once, not per hop. The floating-point operations, their
// operands and their order are those of a full rescan in n.flows order:
// level is one global accumulation, and flows are fixed in n.flows order,
// so each channel's usedFixed sums the same terms in the same sequence.
func (n *Network) solve() {
	n.solves++
	flows := append(n.flowScratch[:0], n.flows...)
	n.flowScratch = flows[:0]
	n.flowsSolved += uint64(len(flows))
	// The lowest cap among the unfixed flows: subtraction rounds
	// monotonically, so minCap-level is the minimum of every cap-level.
	minCap := math.Inf(1)
	for _, f := range flows {
		f.rate = 0
		if f.cap != 0 && f.cap < minCap {
			minCap = f.cap
		}
	}
	chans := append(n.chanScratch[:0], n.occupied...)
	n.chanScratch = chans[:0]
	for _, c := range chans {
		c.nUnfixed = c.nFlows
		c.usedFixed = 0
		c.eff = c.effectiveCapacity()
		c.slack = saturationEps * (1 + c.eff)
	}
	level := 0.0
	for len(flows) > 0 {
		// Next binding constraint above the current fill level. It is a
		// minimum, so channel order is free; channels whose flows are all
		// fixed drop out of the worklist here.
		delta := minCap - level
		live := chans[:0]
		for _, c := range chans {
			if c.nUnfixed == 0 {
				continue
			}
			live = append(live, c)
			d := c.room(level) / float64(c.nUnfixed)
			if d < delta {
				delta = d
			}
		}
		chans = live
		if math.IsInf(delta, 1) {
			// No constraints at all (cannot happen with finite
			// capacities, but guard against an empty channel set).
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		for _, c := range chans {
			c.saturated = c.saturatedAt(level)
		}
		// Fix flows at binding constraints, in n.flows order. A fix
		// changes its channels' usedFixed and nUnfixed, so their flags are
		// re-evaluated on the spot and a later flow's check sees what a
		// fresh computation would.
		capSlack := saturationEps * (1 + level)
		minCap = math.Inf(1)
		unfixed := flows[:0]
		for _, f := range flows {
			bind := f.cap != 0 && f.cap-level <= capSlack
			if !bind {
				for _, c := range f.path {
					if c.saturated {
						bind = true
						break
					}
				}
			}
			if !bind {
				unfixed = append(unfixed, f)
				if f.cap != 0 && f.cap < minCap {
					minCap = f.cap
				}
				continue
			}
			f.rate = level
			for _, c := range f.path {
				c.nUnfixed--
				c.usedFixed += level
				c.saturated = c.saturatedAt(level)
			}
		}
		if len(unfixed) == len(flows) {
			// Numerical stall: fix everything at the current level.
			for _, f := range flows {
				f.rate = level
			}
			break
		}
		flows = unfixed
	}
}

// scheduleCompletion (re)arms the single completion event at the earliest
// flow finish time under current rates.
func (n *Network) scheduleCompletion() {
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := (f.remaining - float64(f.eps/2)) / f.rate
		if t < 0 {
			t = 0
		}
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		n.eng.Cancel(n.complEv)
		return
	}
	n.eng.Reschedule(n.complEv, next)
}

func (n *Network) completions() {
	n.advance()
	// Clock-granularity slack: when the simulated clock is large, event
	// times quantise to its float64 ulp, so a flow can be up to
	// rate*ulp(now) bytes short of its nominal completion no matter how
	// precisely the event was scheduled. Without this slack the
	// completion event would re-arm at sub-ulp deltas and starve forever.
	now := n.eng.Now()
	ulp := math.Nextafter(now, math.Inf(1)) - now
	// The scratch is detached while done callbacks run, so a callback
	// that drives the engine into another completion cannot overwrite it.
	finished := n.finished[:0]
	n.finished = nil
	for _, f := range n.flows {
		if f.remaining <= f.eps+float64(4*f.rate*ulp) {
			finished = append(finished, f)
		}
	}
	// Deterministic callback order.
	for i := 1; i < len(finished); i++ {
		for j := i; j > 0 && finished[j-1].id > finished[j].id; j-- {
			finished[j-1], finished[j] = finished[j], finished[j-1]
		}
	}
	for _, f := range finished {
		n.removeFlow(f)
	}
	n.markDirty()
	for i, f := range finished {
		done := f.done
		n.recycle(f)
		finished[i] = nil
		if done != nil {
			done.Fire()
		}
	}
	n.finished = finished[:0]
}

// recycle returns a Send flow that has left the network to the free list.
func (n *Network) recycle(f *Flow) {
	if f.pooled {
		f.done = nil
		n.freeFlows = append(n.freeFlows, f)
	}
}
