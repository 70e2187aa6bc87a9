package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bittorrent"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/substrate"
	"repro/internal/topology"
)

// matrixApplyCounts is applyCounts as it was while a broadcast Result held
// an n×n matrix: every pair a < b of the broadcast's hosts, read through
// Exchanged. It is the oracle the pairs walk must match bit for bit.
func matrixApplyCounts(g *graph.Graph, bres *bittorrent.Result, active []int, sign float64) {
	idx := func(i int) int {
		if active == nil {
			return i
		}
		return active[i]
	}
	for a := 0; a < bres.N; a++ {
		for b := a + 1; b < bres.N; b++ {
			if w := bres.Exchanged(a, b); w > 0 {
				g.AddWeight(idx(a), idx(b), sign*float64(w))
			}
		}
	}
}

// assertSameGraph fails unless a and b hold the same edges with the same
// weight bits.
func assertSameGraph(t *testing.T, a, b *graph.Graph, step string) {
	t.Helper()
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d edges, the oracle has %d", step, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].U != eb[i].U || ea[i].V != eb[i].V || math.Float64bits(ea[i].Weight) != math.Float64bits(eb[i].Weight) {
			t.Fatalf("%s: edge %d is %+v, the oracle's %+v", step, i, ea[i], eb[i])
		}
	}
}

// TestPairsWalkMatchesMatrixOracle: the merger's walk over a broadcast's
// pairs builds, bit for bit, the graph the n² loop over Exchanged built —
// on BGTL, on a DriftSites run whose churned iterations map dense indices
// through active, and through the sliding window's retirement (sign −1).
func TestPairsWalkMatchesMatrixOracle(t *testing.T) {
	drift, err := scenario.DriftSites(3, 6, 890, 100, 0.5).Compile() // hosts away in iterations 3–8
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		d     *topology.Dataset
		iters int
	}{
		{"BGTL", builtin(t, "BGTL"), 4},
		{"DriftSites", drift, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(tc.iters)
			opts.ClusterEvery = 0
			opts.Window = 2
			opts.Dynamics = tc.d.Timeline
			plans, err := planIterations(opts.Dynamics, tc.d.Hosts, opts)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := substrate.New("sim", substrate.Env{Net: tc.d.Net, Hosts: tc.d.Hosts, Timeline: opts.Dynamics, Seed: opts.Seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			rng := sim.NewRNG(opts.Seed)
			m := newMerger(tc.d.Net, tc.d.Hosts, nil, opts, rng, plans)
			oracle := graph.New(len(tc.d.Hosts))
			var merged []measured
			churned := 0
			for it := 1; it <= tc.iters; it++ {
				hosts, active := tc.d.Hosts, []int(nil)
				if plans != nil {
					hosts, active = plans[it].hosts, plans[it].active
				}
				if active != nil {
					churned++
				}
				bres, err := sub.Measure(context.Background(), substrate.Request{
					Iter: it, Hosts: hosts, Config: broadcastConfig(opts, it, len(hosts)), RNG: rng.Streamf("broadcast", it),
				})
				if err != nil {
					t.Fatal(err)
				}
				m.add(it, bres)
				matrixApplyCounts(oracle, bres, active, 1)
				if it > opts.Window {
					old := merged[it-1-opts.Window]
					matrixApplyCounts(oracle, old.bres, old.active, -1)
				}
				merged = append(merged, measured{bres: bres, active: active})
				assertSameGraph(t, m.counts, oracle, fmt.Sprintf("iteration %d", it))
			}
			if tc.name == "DriftSites" && churned == 0 {
				t.Fatal("no iteration ran on a churned host set")
			}
		})
	}
}

// TestReserveMatchesWeightOracle: reserve finds a broadcast's new
// neighbours by walking each row beside its run of pairs, and leaves the
// room that looking every pair up with Weight gives, on graphs with
// self-loops, with every host active and through an ascending active map.
func TestReserveMatchesWeightOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(60)
		g := graph.New(n)
		for k := rng.Intn(n * n / 2); k > 0; k-- {
			g.AddWeight(rng.Intn(n), rng.Intn(n), 1)
		}
		hosts, active := n, []int(nil)
		if trial%2 == 1 {
			hosts = n/2 + rng.Intn(n/2)
			active = rng.Perm(n)[:hosts]
			slices.Sort(active)
		}
		bres := sparseResult(hosts, 1+rng.Intn(hosts-1), rng)
		want := make([]int, n)
		for _, p := range bres.Pairs {
			a, b := int(p.A), int(p.B)
			if active != nil {
				a, b = active[a], active[b]
			}
			if int(p.AB)+int(p.BA) != 0 && g.Weight(a, b) == 0 {
				want[a]++
				want[b]++
			}
		}
		for v, k := range want {
			if row := g.SortedNeighbors(v); k > 0 && len(row)+k > cap(row) {
				want[v] = min(2*(len(row)+k), n)
			} else {
				want[v] = 0
			}
		}
		m := &merger{counts: g}
		m.reserve(bres, active)
		if !slices.Equal(m.room, want) {
			t.Fatalf("trial %d: reserve left room %v, the Weight lookups %v", trial, m.room, want)
		}
	}
}

// sparseResult is a synthetic broadcast over n hosts in which every host
// exchanged fragments with about degree others, as a tracker's peer sets
// allow.
func sparseResult(n, degree int, rng *rand.Rand) *bittorrent.Result {
	seen := make(map[[2]int]bool)
	var pairs []bittorrent.Pair
	for a := 0; a < n; a++ {
		for _, b := range rng.Perm(n)[:degree] {
			lo, hi := min(a, b), max(a, b)
			if a == b || seen[[2]int{lo, hi}] {
				continue
			}
			seen[[2]int{lo, hi}] = true
			pairs = append(pairs, bittorrent.Pair{A: int32(lo), B: int32(hi), AB: int32(1 + rng.Intn(64)), BA: int32(rng.Intn(64))})
		}
	}
	slices.SortFunc(pairs, func(x, y bittorrent.Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return &bittorrent.Result{N: n, Pairs: pairs}
}

// BenchmarkMergePairs is one iteration's merge of a broadcast's counts into
// a graph that already holds its edges, with about 35 pairs per host and no
// broadcast run: its cost follows the pairs, not n².
func BenchmarkMergePairs(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) {
			bres := sparseResult(n, 35, rand.New(rand.NewSource(1)))
			m := &merger{counts: graph.New(n)}
			m.applyCounts(bres, nil, 1)
			b.ReportAllocs()
			for b.Loop() {
				m.applyCounts(bres, nil, 1)
			}
			b.ReportMetric(float64(len(bres.Pairs)), "pairs")
		})
	}
}
