package simnet_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestReplicaAllocBudget holds what a replica of the reference dataset
// costs the allocator: a Clone is a slab and a few headers whatever the
// link count, and once any network of the topology has routed from every
// host, a new clone resolving all 4032 host pairs allocates one table per
// source and its route storage in chunks — no BFS tree, nothing per pair.
func TestReplicaAllocBudget(t *testing.T) {
	simnet.SkipUnderRace(t)
	d, err := scenario.New("BGTL")
	if err != nil {
		t.Fatal(err)
	}
	allPairs := func(n *simnet.Network) {
		for _, src := range d.Hosts {
			for _, dst := range d.Hosts {
				if src != dst {
					n.Path(src, dst)
				}
			}
		}
	}
	allPairs(d.Net.Clone(sim.NewEngine()))

	const runs = 5
	engines := make([]*sim.Engine, 0, 2*(runs+1))
	for len(engines) < cap(engines) {
		engines = append(engines, sim.NewEngine())
	}
	engine := func() *sim.Engine {
		eng := engines[len(engines)-1]
		engines = engines[:len(engines)-1]
		return eng
	}
	clone := testing.AllocsPerRun(runs, func() { d.Net.Clone(engine()) })
	if clone > 8 {
		t.Errorf("Clone of BGTL allocates %v times, budget 8", clone)
	}
	routed := testing.AllocsPerRun(runs, func() { allPairs(d.Net.Clone(engine())) })
	if budget := float64(2 * len(d.Hosts)); routed-clone > budget {
		t.Errorf("a later clone's first Path over all %d host pairs allocates %v times, budget %v",
			len(d.Hosts)*(len(d.Hosts)-1), routed-clone, budget)
	}
	t.Logf("Clone %v allocations, all-pairs routing on a new clone %v more", clone, routed-clone)
}
