package simnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// fatTree256 compiles the 256-host fabric of the repo benchmark's
// tomo-fattree256 workload: flows cross up to six hops and the spine
// trunks are shared by every inter-pod pair.
func fatTree256(b *testing.B) *topology.Dataset {
	b.Helper()
	d, err := scenario.FatTree(4, 4, 16, 890, 2000, 300).Compile()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSolveChurn measures one re-allocation at a fixed number of
// concurrent flows: each operation cancels one flow and starts another,
// which costs two solves (one when the cancel takes effect, one when the
// new flow activates). The flows are rate-limited like a BitTorrent
// connection's pipeline window and far too large to finish, so only the
// churn changes the flow set.
func BenchmarkSolveChurn(b *testing.B) {
	for _, flows := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("F=%d", flows), func(b *testing.B) {
			d := fatTree256(b)
			rng := rand.New(rand.NewSource(1))
			start := func() *simnet.Flow {
				src := rng.Intn(len(d.Hosts))
				dst := rng.Intn(len(d.Hosts) - 1)
				if dst >= src {
					dst++
				}
				limit := simnet.Mbps(float64(50 + rng.Intn(800)))
				return d.Net.StartFlowRateLimited(d.Hosts[src], d.Hosts[dst], 1e18, limit, nil)
			}
			live := make([]*simnet.Flow, flows)
			for i := range live {
				live[i] = start()
			}
			d.Eng.RunUntil(d.Eng.Now() + 1)
			solves := d.Net.Solves()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(len(live))
				d.Net.CancelFlow(live[k])
				live[k] = start()
				d.Eng.RunUntil(d.Eng.Now() + 1)
			}
			b.StopTimer()
			if n := d.Net.Solves() - solves; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/solve")
			}
		})
	}
}

// BenchmarkStartFlowWarmPath measures a flow's whole life — start,
// activation, solve, completion — between one pair of hosts whose route is
// already cached, with nothing else on the network, started the way the
// swarm starts its transfers (Send: no handle, so the network recycles the
// flow). allocs/op is what one flow costs the allocator once routing is out
// of the picture; TestSendWarmPathAllocatesNothing holds it at zero.
func BenchmarkStartFlowWarmPath(b *testing.B) {
	d := fatTree256(b)
	src, dst := d.Hosts[0], d.Hosts[len(d.Hosts)-1]
	d.Net.Send(src, dst, 1, 0, nil)
	d.Eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Net.Send(src, dst, 1e6, 0, nil)
		d.Eng.Run()
	}
}
