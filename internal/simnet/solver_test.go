package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// referenceSolve is the solver as it stood before per-channel occupancy,
// worklists and saturation flags: a full rescan of every flow and every
// occupied channel per round, with each hop's room recomputed inside the
// bind check. It is the differential oracle for solve — same inputs
// (n.flows in order, each flow's cap and path, each channel's effective
// capacity), rates written to f.rate. Its scratch lives in side tables
// because the production structs no longer carry it.
func referenceSolve(n *Network) {
	type chanState struct {
		flows     []*Flow
		nUnfixed  int
		usedFixed float64
	}
	state := map[*channel]*chanState{}
	fixed := map[*Flow]bool{}
	// Build per-channel flow lists.
	var chans []*channel
	for _, f := range n.flows {
		fixed[f] = false
		f.rate = 0
		for _, c := range f.path {
			if state[c] == nil {
				state[c] = &chanState{}
				chans = append(chans, c)
			}
			state[c].flows = append(state[c].flows, f)
		}
	}
	for _, c := range chans {
		state[c].nUnfixed = len(state[c].flows)
		state[c].usedFixed = 0
	}
	unfixed := len(n.flows)
	level := 0.0
	for unfixed > 0 {
		// Next binding constraint above the current fill level.
		delta := math.Inf(1)
		for _, c := range chans {
			cs := state[c]
			if cs.nUnfixed == 0 {
				continue
			}
			d := (c.effectiveCapacity() - cs.usedFixed - level*float64(cs.nUnfixed)) / float64(cs.nUnfixed)
			if d < delta {
				delta = d
			}
		}
		for _, f := range n.flows {
			if fixed[f] || f.cap == 0 {
				continue
			}
			if d := f.cap - level; d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		// Fix flows at binding constraints. A small epsilon absorbs
		// float error when several constraints bind together.
		const eps = 1e-9
		progressed := false
		for _, f := range n.flows {
			if fixed[f] {
				continue
			}
			bind := f.cap != 0 && f.cap-level <= eps*(1+level)
			if !bind {
				for _, c := range f.path {
					cs := state[c]
					cap := c.effectiveCapacity()
					room := cap - cs.usedFixed - level*float64(cs.nUnfixed)
					if room <= eps*(1+cap) {
						bind = true
						break
					}
				}
			}
			if bind {
				fixed[f] = true
				f.rate = level
				progressed = true
				unfixed--
				for _, c := range f.path {
					state[c].nUnfixed--
					state[c].usedFixed += level
				}
			}
		}
		if !progressed {
			// Numerical stall: fix everything at the current level.
			for _, f := range n.flows {
				if !fixed[f] {
					fixed[f] = true
					f.rate = level
					unfixed--
				}
			}
		}
	}
}

// linkOf returns the static half of c, a channel of n.
func linkOf(n *Network, c *channel) link {
	for i := range n.topo.links {
		if n.channel(int32(i)) == c {
			return n.topo.links[i]
		}
	}
	panic("not a channel of this network")
}

// materialisedRoutes counts the (src, dst) routes n holds as pointers.
func materialisedRoutes(n *Network) int {
	routes := 0
	for _, sp := range n.paths {
		for _, at := range sp.at {
			if at != 0 {
				routes++
			}
		}
	}
	return routes
}

// churnLink is one full-duplex link of a churn topology.
type churnLink struct {
	a, b     int
	capacity float64
}

// churnTopology builds one of three network shapes from the seed — a
// three-level fat tree, a star of sites, or a random connected switch
// graph with hosts hung off it — and returns its hosts and links.
func churnTopology(n *Network, rng *rand.Rand) (hosts []int, links []churnLink) {
	connect := func(a, b int, capacity, latency, perFlow float64) {
		n.Connect(a, b, LinkSpec{Capacity: capacity, Latency: latency, PerFlowCap: perFlow})
		links = append(links, churnLink{a, b, capacity})
	}
	host := func(sw int, capacity float64) {
		h := n.AddHost(fmt.Sprintf("h%d", len(hosts)))
		hosts = append(hosts, h)
		connect(h, sw, capacity, 1e-4*rng.Float64(), 0)
	}
	switch rng.Intn(3) {
	case 0: // fat tree: root, pods, leaves, hosts; thin spine trunks
		root := n.AddSwitch("root")
		for p := 0; p < 2+rng.Intn(2); p++ {
			pod := n.AddSwitch(fmt.Sprintf("pod%d", p))
			connect(pod, root, 300, 2e-4, 0)
			for l := 0; l < 2; l++ {
				leaf := n.AddSwitch(fmt.Sprintf("pod%d-leaf%d", p, l))
				connect(leaf, pod, 2000, 5e-5, 0)
				for h := 0; h < 2+rng.Intn(3); h++ {
					host(leaf, 890)
				}
			}
		}
	case 1: // N sites behind a backbone whose trunks cap single flows
		backbone := n.AddSwitch("backbone")
		for s := 0; s < 2+rng.Intn(3); s++ {
			site := n.AddSwitch(fmt.Sprintf("site%d", s))
			connect(site, backbone, float64(200+rng.Intn(2000)), 5e-3*rng.Float64(), float64(rng.Intn(2)*(50+rng.Intn(500))))
			for h := 0; h < 2+rng.Intn(4); h++ {
				host(site, float64(100+rng.Intn(900)))
			}
		}
	default: // random tree of switches plus a few shortcut links
		sw := []int{n.AddSwitch("s0")}
		for i := 1; i < 3+rng.Intn(5); i++ {
			s := n.AddSwitch(fmt.Sprintf("s%d", i))
			connect(s, sw[rng.Intn(len(sw))], float64(50+rng.Intn(1000)), 1e-3*rng.Float64(), 0)
			sw = append(sw, s)
		}
		for i := 0; i < rng.Intn(3); i++ {
			a, b := rng.Intn(len(sw)), rng.Intn(len(sw))
			if a != b {
				connect(sw[a], sw[b], float64(50+rng.Intn(1000)), 1e-3*rng.Float64(), 0)
			}
		}
		for i := 0; i < 4+rng.Intn(8); i++ {
			host(sw[rng.Intn(len(sw))], float64(50+rng.Intn(1000)))
		}
	}
	return hosts, links
}

// churnRun is what one churn simulation produced.
type churnRun struct {
	completed []int // flow ids in completion order
	end       float64
	solves    uint64
}

// churnNetworks are the three networks a seed's churn runs on. solve reads
// per-channel state that Clone copies and Reset restores, so a replica is
// only as good as the solver's behaviour on it.
var churnNetworks = []string{"as built", "a clone", "a reset replica"}

// runChurn builds the seed's topology and drives a scripted mix of flow
// starts (capped and uncapped), cancellations, capacity changes and link
// failures and repairs over one of churnNetworks — the network as New and
// Connect built it, a Clone of that, or a clone that has run another seed's
// churn and been Reset — one engine event at a time. afterSolve runs after
// every event that re-allocated bandwidth, while the network is exactly as
// the solver left it. Every random draw happens while the script is laid
// out, so two runs of one seed see the same operations even if their rates
// were to differ.
func runChurn(seed int64, network string, afterSolve func(n *Network)) churnRun {
	rng := rand.New(rand.NewSource(seed))
	n := New(sim.NewEngine())
	hosts, links := churnTopology(n, rng)
	switch network {
	case "a clone":
		n = n.Clone(sim.NewEngine())
	case "a reset replica":
		built := n
		n = built.Clone(sim.NewEngine())
		driveChurn(n, hosts, links, rand.New(rand.NewSource(seed+7919)), true, func(*Network) {})
		// The script repairs what it fails; leave the replica with every
		// kind of state a Reset has to undo.
		for _, l := range links {
			n.SetLinkCapacity(l.a, l.b, l.capacity/3)
			n.SetLinkState(l.a, l.b, l.a%2 == 0)
		}
		n.Send(hosts[0], hosts[1], 1e15, 0, nil)
		n.eng.RunUntil(n.eng.Now() + 1)
		n.Reset(built)
	}
	return driveChurn(n, hosts, links, rng, false, afterSolve)
}

// driveChurn lays runChurn's script out on n, whose engine must be at t=0,
// and runs it dry. With send set, every other flow is started with Send —
// no handle, so it is never picked for cancellation, and its storage is
// recycled — and is recorded in completed as -1 minus its script position.
func driveChurn(n *Network, hosts []int, links []churnLink, rng *rand.Rand, send bool, afterSolve func(n *Network)) churnRun {
	eng := n.eng
	var run churnRun
	var started []*Flow
	const horizon = 10.0
	for i := 0; i < 100+rng.Intn(300); i++ {
		at := horizon * rng.Float64()
		switch k := rng.Intn(10); {
		case k < 6:
			src := rng.Intn(len(hosts))
			dst := rng.Intn(len(hosts) - 1)
			if dst >= src {
				dst++
			}
			size := float64(1 + rng.Intn(8000))
			limit := float64(rng.Intn(2) * (10 + rng.Intn(400)))
			if send && i%2 == 1 {
				arrived := sim.Func(func() { run.completed = append(run.completed, -1-i) })
				eng.ScheduleAt(at, func() { n.Send(hosts[src], hosts[dst], size, limit, arrived) })
				continue
			}
			eng.ScheduleAt(at, func() {
				var f *Flow
				f = n.StartFlowRateLimited(hosts[src], hosts[dst], size, limit, func() {
					run.completed = append(run.completed, f.id)
				})
				started = append(started, f)
			})
		case k < 8:
			pick := rng.Intn(1 << 20)
			eng.ScheduleAt(at, func() {
				if len(started) > 0 {
					n.CancelFlow(started[pick%len(started)])
				}
			})
		case k < 9:
			l := links[rng.Intn(len(links))]
			capacity := l.capacity * (0.1 + 1.9*rng.Float64())
			eng.ScheduleAt(at, func() { n.SetLinkCapacity(l.a, l.b, capacity) })
		default:
			l := links[rng.Intn(len(links))]
			outage := horizon * rng.Float64() / 20
			eng.ScheduleAt(at, func() { n.SetLinkState(l.a, l.b, false) })
			eng.ScheduleAt(at+outage, func() { n.SetLinkState(l.a, l.b, true) })
		}
	}

	solves := n.solves
	for eng.Step() {
		if n.solves != solves {
			solves = n.solves
			afterSolve(n)
		}
	}
	run.end = eng.Now()
	run.solves = n.solves
	return run
}

// sameRun reports how two runs of one churn script differ, if they do.
func sameRun(a, b churnRun) error {
	if a.end != b.end || a.solves != b.solves {
		return fmt.Errorf("ended at t=%v after %d solves, against t=%v after %d", a.end, a.solves, b.end, b.solves)
	}
	if fmt.Sprint(a.completed) != fmt.Sprint(b.completed) {
		return fmt.Errorf("completion order %v, against %v", a.completed, b.completed)
	}
	return nil
}

// matchesReference re-derives the allocation solve just left on n with
// referenceSolve and compares bit for bit. It leaves the reference's rates
// in place and re-arms the completion event under them.
func matchesReference(n *Network) error {
	got := make([]uint64, len(n.flows))
	for i, f := range n.flows {
		got[i] = math.Float64bits(f.rate)
	}
	referenceSolve(n)
	for i, f := range n.flows {
		if want := math.Float64bits(f.rate); got[i] != want {
			return fmt.Errorf("flow %d of %d got rate %x (%g), reference %x (%g)",
				i, len(n.flows), got[i], math.Float64frombits(got[i]), want, f.rate)
		}
	}
	n.scheduleCompletion()
	return nil
}

// TestSolveMatchesReferenceBitForBit drives random churn twice per seed
// and network. The second run re-derives every allocation with
// referenceSolve, checks it against what solve produced bit for bit, and
// carries on under the reference's rates; the first run is left alone.
// Equal completion order and end time between the two then show the whole
// trajectory agrees, not only each allocation given the same inputs — and
// equal ones across the three networks that a Clone and a Reset replica
// are the network they replicate.
func TestSolveMatchesReferenceBitForBit(t *testing.T) {
	var solves uint64
	for seed := int64(1); seed <= 240; seed++ {
		var built churnRun
		for _, network := range churnNetworks {
			plain := runChurn(seed, network, func(*Network) {})
			ref := runChurn(seed, network, func(n *Network) {
				if err := matchesReference(n); err != nil {
					t.Fatalf("seed %d on %s, solve %d at t=%g: %v", seed, network, n.solves, n.eng.Now(), err)
				}
			})
			if err := sameRun(plain, ref); err != nil {
				t.Fatalf("seed %d on %s against the same under reference rates: %v", seed, network, err)
			}
			if network == churnNetworks[0] {
				built = plain
			} else if err := sameRun(plain, built); err != nil {
				t.Fatalf("seed %d on %s against the network %s: %v", seed, network, churnNetworks[0], err)
			}
			solves += plain.solves
		}
	}
	if solves < 30000 {
		t.Fatalf("only %d solves compared; the churn script no longer exercises the solver", solves)
	}
}

// maxMinCertificate checks the allocation solve just left on n against the
// conditions that characterise a max-min fair allocation with per-flow
// caps, none of which refers to how the solver got there: no channel
// carries more than its effective capacity; a flow crossing a failed link
// gets nothing; and every flow is either at its cap or crosses a saturated
// channel on which no other flow gets more than it does.
func maxMinCertificate(n *Network) error {
	const tol = 1e-9
	load := map[*channel]float64{}
	top := map[*channel]float64{}
	for _, f := range n.flows {
		for _, c := range f.path {
			load[c] += f.rate
			top[c] = math.Max(top[c], f.rate)
		}
	}
	for c, sum := range load {
		if limit := c.effectiveCapacity(); sum > limit*(1+tol) {
			return fmt.Errorf("channel %d->%d carries %g over capacity %g", linkOf(n, c).from, linkOf(n, c).to, sum, limit)
		}
	}
	for _, f := range n.flows {
		if f.rate < 0 || (f.cap > 0 && f.rate > f.cap*(1+tol)) {
			return fmt.Errorf("flow %d rate %g outside [0, cap %g]", f.id, f.rate, f.cap)
		}
		if f.cap > 0 && f.rate >= f.cap*(1-tol) {
			continue
		}
		bottlenecked := false
		for _, c := range f.path {
			if c.down && f.rate != 0 {
				return fmt.Errorf("flow %d crosses failed link %d->%d at rate %g", f.id, linkOf(n, c).from, linkOf(n, c).to, f.rate)
			}
			limit := c.effectiveCapacity()
			// Saturation is decided to a relative 1e-9 of 1+capacity
			// by the solver; allow it ten times that here.
			if load[c] >= limit-1e-8*(1+limit) && f.rate >= top[c]*(1-tol) {
				bottlenecked = true
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d (rate %g, cap %g) is neither capped nor maximal on a saturated channel", f.id, f.rate, f.cap)
		}
	}
	return nil
}

// TestSolveMaxMinCertificate checks every allocation the churn produces,
// on each of the three networks, against maxMinCertificate.
func TestSolveMaxMinCertificate(t *testing.T) {
	for seed := int64(1000); seed < 1200; seed++ {
		var built churnRun
		for _, network := range churnNetworks {
			run := runChurn(seed, network, func(n *Network) {
				if err := maxMinCertificate(n); err != nil {
					t.Fatalf("seed %d on %s, solve %d at t=%g: %v", seed, network, n.solves, n.eng.Now(), err)
				}
			})
			if network == churnNetworks[0] {
				built = run
			} else if err := sameRun(run, built); err != nil {
				t.Fatalf("seed %d on %s against the network %s: %v", seed, network, churnNetworks[0], err)
			}
		}
	}
}
