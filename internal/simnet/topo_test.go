package simnet

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// fatTree64 builds a 64-host three-level fabric — root, 4 pods, 4 leaves a
// pod, 4 hosts a leaf — whose spine trunks cap single flows, and returns
// its hosts.
func fatTree64() (*Network, []int) {
	n := New(sim.NewEngine())
	var hosts []int
	root := n.AddSwitch("root")
	for p := 0; p < 4; p++ {
		pod := n.AddSwitch(fmt.Sprintf("pod%d", p))
		n.Connect(pod, root, LinkSpec{Capacity: Mbps(300), Latency: 2e-4, PerFlowCap: Mbps(float64(100 + 20*p))})
		for l := 0; l < 4; l++ {
			leaf := n.AddSwitch(fmt.Sprintf("pod%d-leaf%d", p, l))
			n.Connect(leaf, pod, LinkSpec{Capacity: Mbps(2000), Latency: 5e-5})
			for h := 0; h < 4; h++ {
				host := n.AddHost(fmt.Sprintf("h%d", len(hosts)))
				hosts = append(hosts, host)
				n.Connect(host, leaf, LinkSpec{Capacity: Mbps(890), Latency: 1e-5 * float64(1+h)})
			}
		}
	}
	return n, hosts
}

// hostRoute is what a network says about one host pair.
type hostRoute struct {
	ids  []int32
	info PathInfo
}

// allHostRoutes resolves every host pair on n, checking on the way that
// the pointers flows walk are n's own channels under the route's indices.
func allHostRoutes(n *Network, hosts []int) ([]hostRoute, error) {
	var routes []hostRoute
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			ids, hops := n.route(src, dst)
			if len(hops) != len(ids) {
				return nil, fmt.Errorf("route %d->%d has %d indices and %d pointers", src, dst, len(ids), len(hops))
			}
			for i, id := range ids {
				if hops[i] != n.channel(id) {
					return nil, fmt.Errorf("route %d->%d hop %d does not point at channel %d of this network", src, dst, i, id)
				}
			}
			routes = append(routes, hostRoute{ids, n.Path(src, dst)})
		}
	}
	return routes, nil
}

func sameRoutes(got, want []hostRoute) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d routes, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].ids, want[i].ids) || got[i].info != want[i].info {
			return fmt.Errorf("route %d is %v %+v, want %v %+v", i, got[i].ids, got[i].info, want[i].ids, want[i].info)
		}
	}
	return nil
}

// TestClonesShareOneRouteTable: clones taken and routed from concurrently
// fill one table, and every route and PathInfo any of them reads is what a
// network that shares nothing with them computes on its own. Run it under
// -race.
func TestClonesShareOneRouteTable(t *testing.T) {
	fresh, hosts := fatTree64()
	want, err := allHostRoutes(fresh, hosts)
	if err != nil {
		t.Fatal(err)
	}

	src, _ := fatTree64()
	var wg sync.WaitGroup
	clones := make([]*Network, 8)
	errs := make([]error, len(clones))
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i] = src.Clone(sim.NewEngine())
			got, err := allHostRoutes(clones[i], hosts)
			if err == nil {
				err = sameRoutes(got, want)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}
	for i, c := range clones {
		if c.topo != src.topo {
			t.Fatalf("clone %d does not share the source's topology", i)
		}
		for _, h := range hosts {
			if c.paths[h].routes != clones[0].paths[h].routes {
				t.Fatalf("clone %d holds its own routes from host %d", i, h)
			}
		}
	}
	// The source reads the same table, and so does a clone of a clone.
	for _, n := range []*Network{src, clones[3].Clone(sim.NewEngine())} {
		got, err := allHostRoutes(n, hosts)
		if err == nil {
			err = sameRoutes(got, want)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n.paths[hosts[0]].routes != clones[0].paths[hosts[0]].routes {
			t.Fatal("a network of the same topology computed routes of its own")
		}
	}
}

// TestConnectAfterCloneDetaches: a link added to the source after a Clone
// reroutes the source and leaves the clone — its routes, its channels and
// the topology it reports — as it was; and the other way round.
func TestConnectAfterCloneDetaches(t *testing.T) {
	src, hosts := fatTree64()
	a, b := hosts[0], hosts[63]
	clone := src.Clone(sim.NewEngine())
	before, err := allHostRoutes(clone, hosts)
	if err != nil {
		t.Fatal(err)
	}
	channels := len(clone.topo.links)

	src.Connect(a, b, LinkSpec{Capacity: Mbps(10)})
	late := src.AddHost("late")
	src.Connect(late, a, LinkSpec{Capacity: Mbps(10)})
	if got := src.Path(a, b).Hops; got != 1 {
		t.Fatalf("source routes %d hops after the shortcut, want 1", got)
	}
	if got := src.Path(late, b).Hops; got != 2 {
		t.Fatalf("source routes the late host over %d hops, want 2", got)
	}
	after, err := allHostRoutes(clone, hosts)
	if err == nil {
		err = sameRoutes(after, before)
	}
	if err != nil {
		t.Fatalf("clone after the source changed: %v", err)
	}
	if len(clone.topo.verts) != len(src.topo.verts)-1 || len(clone.topo.links) != channels || clone.FindVertex("late") != -1 {
		t.Fatalf("clone reports %d vertices and %d channels after the source grew", len(clone.topo.verts), len(clone.topo.links))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset from a source that has since been rewired did not panic")
			}
		}()
		clone.Reset(src)
	}()

	// A clone may be extended too; a flow it has in flight keeps its route
	// and its channels.
	done := false
	clone.StartFlow(a, b, 1e6, func() { done = true })
	clone.Engine().RunUntil(1e-3)
	clone.Connect(a, b, LinkSpec{Capacity: Mbps(10)})
	if got := clone.Path(a, b).Hops; got != 1 {
		t.Fatalf("clone routes %d hops after its own shortcut, want 1", got)
	}
	clone.Engine().Run()
	if !done || clone.ActiveFlows() != 0 || len(clone.occupied) != 0 {
		t.Fatalf("a flow in flight across a Connect: done %v, %d still active, %d channels occupied", done, clone.ActiveFlows(), len(clone.occupied))
	}
	sibling := src.Clone(sim.NewEngine())
	if got := sibling.Path(late, b).Hops; got != 2 {
		t.Fatalf("a later clone of the source routes the late host over %d hops, want 2", got)
	}
}

// TestLinkOperationsAllocateNothing: a timeline replays hundreds of link
// changes per iteration; resolving (a, b) to its channels is a walk, not a
// slice.
func TestLinkOperationsAllocateNothing(t *testing.T) {
	skipUnderRace(t)
	_, n, a, b := pair(t, LinkSpec{Capacity: Mbps(800), Latency: 1e-3})
	n.Connect(b, a, LinkSpec{Capacity: Mbps(100)}) // a parallel link, declared the other way round
	up := false
	allocs := testing.AllocsPerRun(100, func() {
		capacity := Mbps(float64(400 + n.Solves()%7))
		n.SetLinkState(a, b, up)
		n.SetLinkCapacity(b, a, capacity)
		if n.LinkUp(b, a) != up || n.LinkCapacity(a, b) != capacity {
			t.Fatal("a link getter disagrees with the setter")
		}
		for id := range n.topo.links {
			if c := n.channel(int32(id)); c.down == up || c.capacity != capacity {
				t.Fatalf("a link operation missed channel %d of the parallel links", id)
			}
		}
		up = !up
		n.Engine().Run()
	})
	if allocs != 0 {
		t.Fatalf("a round of link operations allocates %v times, want 0", allocs)
	}
}

// TestRouteLongerThanAChunk: route storage comes in chunks of hopChunk
// pointers; a longer route gets a chunk to itself and the routes after it
// carry on in the next.
func TestRouteLongerThanAChunk(t *testing.T) {
	n := New(sim.NewEngine())
	a, c := n.AddHost("a"), n.AddHost("c")
	prev := a
	for i := 0; i < hopChunk+10; i++ {
		sw := n.AddSwitch("s")
		n.Connect(prev, sw, LinkSpec{Capacity: 100})
		if i == 0 {
			n.Connect(c, sw, LinkSpec{Capacity: 100})
		}
		prev = sw
	}
	b := n.AddHost("b")
	n.Connect(prev, b, LinkSpec{Capacity: 100})
	for _, pair := range [][3]int{{a, c, 2}, {a, b, hopChunk + 11}, {c, a, 2}, {b, a, hopChunk + 11}, {c, b, hopChunk + 11}} {
		for range 2 { // cold, then from storage
			ids, hops := n.route(pair[0], pair[1])
			if len(ids) != pair[2] || len(hops) != pair[2] {
				t.Fatalf("route %d->%d has %d indices and %d pointers, want %d", pair[0], pair[1], len(ids), len(hops), pair[2])
			}
			for i, id := range ids {
				if hops[i] != n.channel(id) {
					t.Fatalf("route %d->%d hop %d does not point at channel %d", pair[0], pair[1], i, id)
				}
			}
		}
	}
}
