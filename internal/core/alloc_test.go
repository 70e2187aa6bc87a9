package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestWarmIterationAllocBudget holds phase 2's storage to one set-up per
// call: on the reference run's options (BGTL, 64 hosts, 5% payload, one
// worker, clustering after every iteration), a 9-iteration run allocates
// at most budget times more than an 8-iteration run. The difference is
// one warm iteration: a Measure, the merge of its fragment counts, one
// Louvain call and one NMI score. Measured: 44 to 50, and the budget is
// that plus a quarter. Before the merger sized its rows up front, Louvain
// worked in one workspace and LFK counted from an intersection table, it
// was 198.
func TestWarmIterationAllocBudget(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const budget = 62
	d := builtin(t, "BGTL")
	opts := DefaultOptions()
	opts.Workers = 1
	opts.ClusterEvery = 1
	opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * 0.05)
	run := func(iters int) uint64 {
		opts.Iterations = iters
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunDataset(d, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run(8) // warm the process: the first run pays one-time set-up
	eight, nine := run(8), run(9)
	t.Logf("8 iterations: %d allocations, 9 iterations: %d", eight, nine)
	if nine < eight || nine-eight > budget {
		t.Errorf("the ninth iteration allocates %d times, budget %d", int64(nine)-int64(eight), budget)
	}
}
