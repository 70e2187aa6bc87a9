package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
)

// skipUnderRace skips a test that counts allocations: the race detector's
// instrumentation allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are meaningless under the race detector")
		}
	}
}

// TestCancelFinishedFlowAfterReuseIsNoOp: CancelFlow documents that a
// handle to a finished flow is a no-op, and it must stay one however many
// Send flows the network has recycled since — a network that put the
// finished StartFlow flow on its free list would, here, abort one of the
// active flows that now occupies it.
func TestCancelFinishedFlowAfterReuseIsNoOp(t *testing.T) {
	run := func(cancelStale bool) (order []int, end float64) {
		eng := sim.NewEngine()
		n := New(eng)
		sw := n.AddSwitch("sw")
		hosts := make([]int, 8)
		for i := range hosts {
			hosts[i] = n.AddHost(fmt.Sprintf("h%d", i))
			n.Connect(hosts[i], sw, LinkSpec{Capacity: Mbps(100), Latency: 1e-4})
		}
		stale := n.StartFlow(hosts[0], hosts[1], 1000, func() { order = append(order, -1) })
		eng.Run()
		// 10k flows through the pool, 50 at a time; the last round is
		// larger than any before it, so every recycled flow is active
		// when the stale handle is cancelled.
		id := 0
		send := func(k int) {
			for i := 0; i < k; i++ {
				at := id
				id++
				size := float64(1000 + 100*(at%13))
				n.Send(hosts[at%8], hosts[(at+1+at%7)%8], size, 0, sim.Func(func() { order = append(order, at) }))
			}
		}
		for round := 0; round < 200; round++ {
			send(50)
			eng.Run()
		}
		send(80)
		eng.RunUntil(eng.Now() + 2e-4) // past every path latency: all 80 are active
		if n.ActiveFlows() != 80 {
			t.Fatalf("%d flows active, want 80", n.ActiveFlows())
		}
		if cancelStale {
			n.CancelFlow(stale)
		}
		return order, eng.Run()
	}
	wantOrder, wantEnd := run(false)
	gotOrder, gotEnd := run(true)
	if len(wantOrder) != 1+10000+80 || len(gotOrder) != len(wantOrder) {
		t.Fatalf("%d flows completed after cancelling a stale handle, %d without, want %d",
			len(gotOrder), len(wantOrder), 1+10000+80)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("flow %d finished %d-th without the stale CancelFlow, flow %d with it", wantOrder[i], i, gotOrder[i])
		}
	}
	if gotEnd != wantEnd {
		t.Fatalf("run ended at t=%v after cancelling a stale handle, t=%v without", gotEnd, wantEnd)
	}
}

// TestResetMatchesFreshClone: a replica that has run churn and is then
// Reset must behave, bit for bit, like src.Clone on a new engine — with
// whatever it was left holding (an active flow, a pending activation, a
// queued resolve: what a dynamics Burst or the swarm's last completions
// leave behind) gone, and its links back at the source's state, not at its
// own history's.
func TestResetMatchesFreshClone(t *testing.T) {
	type trace struct {
		churnRun
		rates []uint64 // Float64bits of every flow's rate after every solve
		ids   []int    // active flow ids after every solve
	}
	drive := func(n *Network, hosts []int, links []churnLink, seed int64) trace {
		var tr trace
		tr.churnRun = driveChurn(n, hosts, links, rand.New(rand.NewSource(seed)), true, func(n *Network) {
			for _, f := range n.flows {
				tr.rates = append(tr.rates, math.Float64bits(f.rate))
				tr.ids = append(tr.ids, f.id)
			}
		})
		return tr
	}
	for seed := int64(1); seed <= 40; seed++ {
		src := New(sim.NewEngine())
		hosts, links := churnTopology(src, rand.New(rand.NewSource(seed)))
		// The source carries history of its own: Reset must copy it.
		src.SetLinkCapacity(links[0].a, links[0].b, links[0].capacity/4)
		downed := links[len(links)-1]
		src.SetLinkState(downed.a, downed.b, false)
		src.eng.Run()

		replica := src.Clone(sim.NewEngine())
		drive(replica, hosts, links, seed+1000)
		for _, l := range links {
			// What a LinkScale and a LinkDown of earlier iterations do.
			replica.SetLinkCapacity(l.a, l.b, replica.LinkCapacity(l.a, l.b)*0.5)
			replica.SetLinkState(l.a, l.b, l.a%2 == 0)
		}
		replica.SetLinkState(downed.a, downed.b, true)
		held := replica.StartFlow(hosts[0], hosts[1], 1e15, nil)
		replica.Send(hosts[1], hosts[0], 1e15, 0, nil)
		for !held.active {
			replica.eng.Step()
		}
		replica.Send(hosts[0], hosts[1], 1e15, 0, nil)
		if replica.PendingFlows() == 0 || !replica.dirty || replica.eng.Pending() < 2 {
			t.Fatalf("seed %d: replica not mid-flight before Reset: %d pending flows, dirty %v, %d events queued",
				seed, replica.PendingFlows(), replica.dirty, replica.eng.Pending())
		}

		replica.Reset(src)
		replica.CancelFlow(held) // a handle from before the Reset is a no-op
		if replica.ActiveFlows() != 0 || replica.PendingFlows() != 0 || replica.eng.Pending() != 0 ||
			replica.eng.Now() != 0 || replica.Solves() != 0 {
			t.Fatalf("seed %d: Reset left %d active and %d pending flows, %d events, t=%g, %d solves",
				seed, replica.ActiveFlows(), replica.PendingFlows(), replica.eng.Pending(), replica.eng.Now(), replica.Solves())
		}
		for _, l := range links {
			if got, want := replica.LinkCapacity(l.a, l.b), src.LinkCapacity(l.a, l.b); got != want {
				t.Fatalf("seed %d: link %d-%d capacity %g after Reset, source has %g", seed, l.a, l.b, got, want)
			}
			if got, want := replica.LinkUp(l.a, l.b), src.LinkUp(l.a, l.b); got != want {
				t.Fatalf("seed %d: link %d-%d up=%v after Reset, source has %v", seed, l.a, l.b, got, want)
			}
		}

		got := drive(replica, hosts, links, seed+2000)
		want := drive(src.Clone(sim.NewEngine()), hosts, links, seed+2000)
		if got.end != want.end || got.solves != want.solves {
			t.Fatalf("seed %d: reset replica ended at t=%v after %d solves, fresh clone at t=%v after %d",
				seed, got.end, got.solves, want.end, want.solves)
		}
		if fmt.Sprint(got.completed) != fmt.Sprint(want.completed) {
			t.Fatalf("seed %d: completion order %v on the reset replica, %v on a fresh clone", seed, got.completed, want.completed)
		}
		if fmt.Sprint(got.ids) != fmt.Sprint(want.ids) {
			t.Fatalf("seed %d: flow ids differ between the reset replica and a fresh clone", seed)
		}
		if len(got.rates) != len(want.rates) || len(got.rates) == 0 {
			t.Fatalf("seed %d: %d rates recorded on the reset replica, %d on a fresh clone", seed, len(got.rates), len(want.rates))
		}
		for i := range want.rates {
			if got.rates[i] != want.rates[i] {
				t.Fatalf("seed %d: rate %d is %x on the reset replica, %x on a fresh clone", seed, i, got.rates[i], want.rates[i])
			}
		}
	}
}

// TestSendWarmPathAllocatesNothing holds the line BenchmarkStartFlowWarmPath
// reports: once its route is cached and the pools have one flow's worth of
// objects, a Send's whole life — start, activation, solve, completion —
// costs the allocator nothing.
func TestSendWarmPathAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	eng, n, a, b := pair(t, LinkSpec{Capacity: Mbps(800), Latency: 1e-3})
	one := func() {
		n.Send(a, b, 1e6, 0, nil)
		eng.Run()
	}
	one()
	if allocs := testing.AllocsPerRun(100, one); allocs != 0 {
		t.Fatalf("a warm Send allocates %v times, want 0", allocs)
	}
}
