package simnet

import (
	"sync"
	"sync/atomic"
)

// topo is the static half of a network: the vertices, the links as
// Connect declared them, and the routes that follow from the two. A network
// and all its clones reach one topo by pointer. Once shared it is never
// edited — AddHost, AddSwitch and Connect move their network to a copy — so
// only the lazily filled route table needs the lock.
type topo struct {
	verts []vertex
	links []link // by channel index; links[i^1] is the same link's other direction

	shared atomic.Bool // a Clone holds this topo too

	mu     sync.Mutex
	routes []*routeSet // by source vertex; nil until the source is first routed from
	// BFS scratch, reused from one source to the next.
	via   []int32 // the channel each vertex was reached over, -1 = not reached
	queue []int32
}

type vertex struct {
	name   string
	isHost bool
	out    []int32 // outgoing channels, in Connect order
}

// link is what Connect fixed about one direction of a link.
type link struct {
	from, to   int32
	latency    float64
	perFlowCap float64
}

// routeSet holds the hop-count shortest paths from one source to every
// host, as channel indices in one slab. It is immutable once built.
type routeSet struct {
	off  []int32 // the route to dst is hops[off[dst]:off[dst+1]]
	hops []int32
}

// to returns the route to dst; it is empty for the source itself, for a
// switch and for a host the source cannot reach.
func (r *routeSet) to(dst int) []int32 { return r.hops[r.off[dst]:r.off[dst+1]] }

// forEdit returns the topo its one network may change the vertex or link
// set of: t itself, its routes dropped, unless a clone shares it, then a
// copy with none.
func (t *topo) forEdit() *topo {
	if !t.shared.Load() {
		t.routes = nil
		return t
	}
	c := &topo{verts: make([]vertex, len(t.verts)), links: append([]link(nil), t.links...)}
	for i, v := range t.verts {
		c.verts[i] = vertex{name: v.name, isHost: v.isHost, out: append([]int32(nil), v.out...)}
	}
	return c
}

// routesFrom returns the routes from src, running the BFS on the first call
// for a source and handing every later caller — any replica, any goroutine —
// the same set. Ties are broken by vertex insertion order, then Connect
// order: a vertex keeps the first channel the search reached it over.
func (t *topo) routesFrom(src int) *routeSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.routes == nil {
		t.routes = make([]*routeSet, len(t.verts))
		t.via = make([]int32, len(t.verts))
	}
	if r := t.routes[src]; r != nil {
		return r
	}
	via := t.via
	for i := range via {
		via[i] = -1
	}
	// off[v+1] holds v's depth until the sum over the hosts' below.
	off := make([]int32, len(t.verts)+1)
	queue := append(t.queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range t.verts[v].out {
			if to := t.links[id].to; via[to] == -1 && int(to) != src {
				via[to] = id
				off[to+1] = off[v+1] + 1
				queue = append(queue, to)
			}
		}
	}
	t.queue = queue[:0]
	for v, vert := range t.verts {
		if !vert.isHost {
			off[v+1] = 0
		}
		off[v+1] += off[v]
	}
	r := &routeSet{off: off, hops: make([]int32, off[len(t.verts)])}
	for dst := range t.verts {
		// Walk dst -> src, filling the route from its last hop backwards.
		at := dst
		for i := off[dst+1]; i > off[dst]; i-- {
			r.hops[i-1] = via[at]
			at = int(t.links[via[at]].from)
		}
	}
	t.routes[src] = r
	return r
}
