package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fuzzChurn decodes data into a small topology — a tree of switches with a
// few shortcut or parallel links, hosts hung off it — and a churn script
// over it: flow starts with and without a rate cap, cancellations, capacity
// changes and link failures and repairs, each a few bytes, laid out on the
// clock in the order they are decoded. It builds the topology, takes a
// Clone of it if asked to, runs the script dry one engine event at a time
// and calls afterSolve like runChurn. Every byte string decodes to
// something: a reader that has run out yields zeros.
func fuzzChurn(data []byte, clone bool, afterSolve func(n *Network)) churnRun {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := New(sim.NewEngine())
	var links []churnLink
	connect := func(a, b int) {
		spec := LinkSpec{
			Capacity: float64(10 * (1 + next())),
			Latency:  1e-3 * float64(next()%4),
		}
		if k := next(); k%3 == 0 {
			spec.PerFlowCap = float64(2 * (1 + k))
		}
		n.Connect(a, b, spec)
		links = append(links, churnLink{a, b, spec.Capacity})
	}
	switches := []int{n.AddSwitch("s0")}
	for i, more := 1, next()%4; i <= more; i++ {
		s := n.AddSwitch(fmt.Sprintf("s%d", i))
		connect(s, switches[next()%len(switches)])
		switches = append(switches, s)
	}
	for i := next() % 3; i > 0; i-- {
		// a == b is not a link; a pair already linked gets a parallel one.
		if a, b := switches[next()%len(switches)], switches[next()%len(switches)]; a != b {
			connect(a, b)
		}
	}
	var hosts []int
	for i, count := 0, 2+next()%6; i < count; i++ {
		h := n.AddHost(fmt.Sprintf("h%d", i))
		connect(h, switches[next()%len(switches)])
		hosts = append(hosts, h)
	}
	if clone {
		n = n.Clone(sim.NewEngine())
	}

	eng := n.eng
	var run churnRun
	var started []*Flow
	at := 0.0
	for op := 0; len(data) > 0 && op < 256; op++ {
		kind := next()
		at += 0.02 * float64(kind>>4)
		switch kind % 8 {
		case 0, 1, 2, 3:
			src := next() % len(hosts)
			dst := next() % (len(hosts) - 1)
			if dst >= src {
				dst++
			}
			size := float64(50 * (1 + next()))
			limit := 0.0
			if kind%2 == 1 {
				limit = float64(3 * (1 + next()))
			}
			eng.ScheduleAt(at, func() {
				var f *Flow
				f = n.StartFlowRateLimited(hosts[src], hosts[dst], size, limit, func() {
					run.completed = append(run.completed, f.id)
				})
				started = append(started, f)
			})
		case 4, 5:
			pick := next()
			eng.ScheduleAt(at, func() {
				if len(started) > 0 {
					n.CancelFlow(started[pick%len(started)])
				}
			})
		case 6:
			l := links[next()%len(links)]
			capacity := l.capacity * (0.1 + 1.9*float64(next())/255)
			eng.ScheduleAt(at, func() { n.SetLinkCapacity(l.a, l.b, capacity) })
		default:
			l := links[next()%len(links)]
			up := next()%2 == 0
			eng.ScheduleAt(at, func() { n.SetLinkState(l.a, l.b, up) })
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

// FuzzSolveCertificate is the solver's guard that does not depend on 240
// fixed seeds: whatever topology and churn the bytes decode to, every
// allocation solve produces — on the network as built and on a Clone of it —
// passes the max-min certificate and equals referenceSolve's bit for bit,
// and the two networks live through the same run.
func FuzzSolveCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(n *Network) {
			if err := maxMinCertificate(n); err != nil {
				t.Fatalf("solve %d at t=%g: %v", n.solves, n.eng.Now(), err)
			}
			if err := matchesReference(n); err != nil {
				t.Fatalf("solve %d at t=%g: %v", n.solves, n.eng.Now(), err)
			}
		}
		built := fuzzChurn(data, false, check)
		if err := sameRun(fuzzChurn(data, true, check), built); err != nil {
			t.Fatalf("a clone against the network as built: %v", err)
		}
	})
}
