package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// quick returns a Runner at tiny scale (about 760 fragments, few
// iterations) writing to a buffer and a temp data dir.
func quick(t *testing.T, iters int) (*Runner, *strings.Builder, string) {
	t.Helper()
	var sb strings.Builder
	dir := t.TempDir()
	r := New(Config{Scale: 0.05, Iterations: iters, Seed: 1, Out: &sb, DataDir: dir})
	return r, &sb, dir
}

func TestFig4SmallScale(t *testing.T) {
	r, out, dir := quick(t, 4)
	data, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.LocalPerEdge) != 31 || len(data.RemotePerEdge) != 32 {
		t.Fatalf("edge groups = %d local, %d remote; want 31/32",
			len(data.LocalPerEdge), len(data.RemotePerEdge))
	}
	if data.Ratio <= 1 {
		t.Fatalf("local/remote ratio = %.2f, want > 1 (locality preference)", data.Ratio)
	}
	if !strings.Contains(out.String(), "Fig.4") {
		t.Fatal("table not emitted")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4_bars.csv")); err != nil {
		t.Fatal("fig4 CSV not written")
	}
}

func TestFig5SmallScale(t *testing.T) {
	r, out, dir := quick(t, 8)
	data, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if data.Summary.N != 8 {
		t.Fatalf("runs = %d, want 8", data.Summary.N)
	}
	// The defining property: single-run measurements are highly variable.
	if data.Summary.Max == data.Summary.Min {
		t.Fatal("no variance at all across runs; the metric should be noisy")
	}
	// And NetPIPE on the same link is essentially exact.
	if data.NetPipeSpread > 1 {
		t.Fatalf("NetPIPE spread = %.3f Mbps, want ~0", data.NetPipeSpread)
	}
	if data.NetPipeMbps < 850 {
		t.Fatalf("NetPIPE = %.1f Mbps, want ~890", data.NetPipeMbps)
	}
	if !strings.Contains(out.String(), "#") {
		t.Fatal("histogram not rendered")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_samples.csv")); err != nil {
		t.Fatal("fig5 CSV not written")
	}
}

func TestEfficiencySmallScale(t *testing.T) {
	r, _, _ := quick(t, 0)
	data, err := r.Efficiency()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.NodeDurations) != 3 {
		t.Fatal("expected 3 node-count measurements")
	}
	// Near-constant in node count: 128 nodes within 3x of 32 nodes.
	if data.NodeDurations[2] > 3*data.NodeDurations[0] {
		t.Fatalf("duration grew from %.2fs (32) to %.2fs (128); want near-constant",
			data.NodeDurations[0], data.NodeDurations[2])
	}
	// Linear-ish in size: full file takes at least 2x the quarter file.
	if data.SizeDurations[2] < 2*data.SizeDurations[0] {
		t.Fatalf("full file %.2fs vs quarter %.2fs; want ~linear",
			data.SizeDurations[2], data.SizeDurations[0])
	}
}

func TestCostSmallScale(t *testing.T) {
	r, out, _ := quick(t, 6)
	data, err := r.Cost()
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]CostRow{}
	for _, row := range data.Rows {
		byMethod[row.Method] = append(byMethod[row.Method], row)
	}
	pairwise := byMethod["pairwise idle"]
	if len(pairwise) != 3 {
		t.Fatalf("pairwise rows = %d, want 3", len(pairwise))
	}
	// O(N²) probes: 28, 120, 190.
	if pairwise[0].Probes != 28 || pairwise[2].Probes != 190 {
		t.Fatalf("pairwise probes = %d, %d; want 28, 190", pairwise[0].Probes, pairwise[2].Probes)
	}
	// The headline: ~1 hour for 20 nodes, as in [13].
	if pairwise[2].Seconds < 2000 || pairwise[2].Seconds > 7200 {
		t.Fatalf("pairwise 20-node time = %.0fs, want about an hour", pairwise[2].Seconds)
	}
	// Idle pairwise is blind to the bottleneck: 1 cluster => low NMI.
	if pairwise[2].NMI > 0.5 {
		t.Fatalf("idle pairwise NMI = %.2f; it should miss the bottleneck", pairwise[2].NMI)
	}
	// Triplet probing costs even more per node count.
	trip := byMethod["triplet interference"]
	if len(trip) == 0 {
		t.Fatal("no triplet rows")
	}
	if trip[0].Probes <= pairwise[0].Probes {
		t.Fatal("triplet probing should need more probes than pairwise")
	}
	// Ours is orders of magnitude cheaper than loaded pairwise at n=20.
	ours := byMethod["bittorrent (15 iters)"]
	if len(ours) != 3 {
		t.Fatalf("bittorrent rows = %d, want 3", len(ours))
	}
	loaded := byMethod["pairwise loaded"]
	if ours[2].Seconds >= loaded[2].Seconds/5 {
		t.Fatalf("ours %.0fs vs loaded pairwise %.0fs: want >5x cheaper",
			ours[2].Seconds, loaded[2].Seconds)
	}
	if !strings.Contains(out.String(), "E4") {
		t.Fatal("cost table not emitted")
	}
}

func TestNetPipeTable(t *testing.T) {
	r, _, _ := quick(t, 0)
	data, err := r.NetPipe()
	if err != nil {
		t.Fatal(err)
	}
	if data.IntraMbps < 880 || data.IntraMbps > 895 {
		t.Fatalf("intra = %.1f, want ~890", data.IntraMbps)
	}
	if data.InterMbps < 760 || data.InterMbps > 790 {
		t.Fatalf("inter = %.1f, want ~787", data.InterMbps)
	}
	// The bottleneck is invisible to an isolated probe.
	if data.CrossBottleneckMbps < 880 {
		t.Fatalf("cross-bottleneck idle probe = %.1f, want full ~890", data.CrossBottleneckMbps)
	}
}

func TestDatasetsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset suite takes a few seconds")
	}
	r, out, dir := quick(t, 8)
	data, err := r.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6 datasets", len(data.Outcomes))
	}
	for _, o := range data.Outcomes {
		if o.Series == nil || len(o.Series.Y) == 0 {
			t.Fatalf("%s: no NMI series", o.Name)
		}
	}
	// 2x2 must be a single cluster.
	if data.Outcomes[0].Name != "2x2" || data.Outcomes[0].FinalClusters != 1 {
		t.Fatalf("2x2 outcome wrong: %+v", data.Outcomes[0])
	}
	if !strings.Contains(out.String(), "dataset suite") {
		t.Fatal("table not emitted")
	}
	for _, f := range []string{"fig13_nmi.csv", "layout_B.dot", "layout_B.svg"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s", f)
		}
	}
}

func TestUnknownExperimentName(t *testing.T) {
	r, _, _ := quick(t, 1)
	if err := r.Run("nonsense"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestHierarchyExperimentSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("hierarchy experiment runs 30 broadcasts")
	}
	// The hierarchy comparison needs a converged flat clustering; run at
	// half payload rather than the tiny default test scale.
	var sb strings.Builder
	r := New(Config{Scale: 0.5, Iterations: 12, Seed: 1, Out: &sb, Workers: runtime.GOMAXPROCS(0)})
	data, err := r.Hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// The hierarchical score must not be worse than the flat score: the
	// hierarchy contains the flat top level, and the MinQ guard stops
	// noise sub-splits.
	if data.HierNMI < data.FlatNMI-0.05 {
		t.Fatalf("hierarchical NMI %.3f below flat %.3f", data.HierNMI, data.FlatNMI)
	}
	if data.FlatNMI < 0.6 {
		t.Fatalf("flat NMI %.3f did not converge; paper reports ≈0.7, ours resolves higher", data.FlatNMI)
	}
	if !strings.Contains(sb.String(), "E15") {
		t.Fatal("table not emitted")
	}
}

func TestStressExperimentSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress experiment runs many broadcasts")
	}
	r, out, _ := quick(t, 0) // keep the experiment's own 15 iterations
	r.cfg.Workers = runtime.GOMAXPROCS(0)
	data, err := r.Stress()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(data.Rows))
	}
	// At the test's reduced payload the cluster COUNT must be right in
	// every setting and the assignment nearly right; full-scale payloads
	// (cmd/experiments) converge the rest of the way, as the Fig. 13
	// iteration curves show.
	for _, row := range data.Rows {
		if row.FoundK != row.TruthK {
			t.Fatalf("seed %d: found %d clusters, truth %d", row.Seed, row.FoundK, row.TruthK)
		}
		if row.NMI < 0.85 {
			t.Fatalf("seed %d: NMI %.3f below 0.85", row.Seed, row.NMI)
		}
	}
	if data.Perfect < 2 {
		t.Fatalf("only %d/5 random topologies recovered exactly", data.Perfect)
	}
	if !strings.Contains(out.String(), "E16") {
		t.Fatal("table not emitted")
	}
}

// TestDatasetsParallelSweepMatchesSequential: the concurrent per-dataset
// sweep must produce the same outcomes, in the same paper order, as the
// sequential sweep.
func TestDatasetsParallelSweepMatchesSequential(t *testing.T) {
	run := func(workers int) *DatasetsData {
		var sb strings.Builder
		r := New(Config{Scale: 0.05, Iterations: 2, Seed: 1, Out: &sb, Workers: workers})
		data, err := r.Datasets()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq, par := run(0), run(3)
	if len(seq.Outcomes) != len(par.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq.Outcomes), len(par.Outcomes))
	}
	for i := range seq.Outcomes {
		s, p := seq.Outcomes[i], par.Outcomes[i]
		if s.Name != p.Name {
			t.Fatalf("outcome %d ordered %q sequentially, %q in parallel", i, s.Name, p.Name)
		}
		if s.FinalNMI != p.FinalNMI || s.FinalClusters != p.FinalClusters ||
			s.Q != p.Q || s.ConvergedAt != p.ConvergedAt || s.MeanDuration != p.MeanDuration {
			t.Fatalf("%s diverged: seq %+v par %+v", s.Name, s, p)
		}
	}
}

// TestRunAllParallelOrderedOutput: concurrent experiments must emit their
// buffered output in paper order and byte-identical to a sequential run.
// The experiment list is shortened to keep the test fast.
func TestRunAllParallelOrderedOutput(t *testing.T) {
	old := Names
	Names = []string{"netpipe", "fig4"}
	defer func() { Names = old }()

	run := func(workers int) string {
		var sb strings.Builder
		r := New(Config{Scale: 0.05, Iterations: 2, Seed: 1, Out: &sb, Workers: workers})
		if err := r.RunAll(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq, par := run(0), run(2)
	if par != seq {
		t.Fatalf("parallel RunAll output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if netpipe, fig4 := strings.Index(par, "NetPIPE"), strings.Index(par, "Fig.4"); netpipe < 0 || fig4 < 0 || netpipe > fig4 {
		t.Fatalf("experiment output out of order (netpipe at %d, fig4 at %d)", netpipe, fig4)
	}
}

// TestFanOut pins the helper Datasets, SweepSpecs and RunAll share: every
// index runs exactly once at any pool size, the error returned is the
// lowest-index failure whatever the scheduling, and nothing is claimed
// after a failure has been recorded.
func TestFanOut(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		workers int
		fail    []int // indices whose task errors
		want    int   // index whose error must come back; -1 for none
	}{
		{0, nil, -1}, {1, nil, -1}, {4, nil, -1},
		{0, []int{3}, 3}, {1, []int{3}, 3}, {4, []int{3}, 3},
		{0, []int{1, 3}, 1}, {1, []int{1, 3}, 1}, {4, []int{1, 3}, 1},
	} {
		for rep := 0; rep < 50; rep++ {
			var visits [n]atomic.Int32
			err := fanOut(tc.workers, n, func(i int) error {
				visits[i].Add(1)
				if slices.Contains(tc.fail, i) {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if tc.want < 0 {
				if err != nil {
					t.Fatalf("workers=%d: unexpected error %v", tc.workers, err)
				}
			} else if err == nil || err.Error() != fmt.Sprintf("task %d", tc.want) {
				t.Fatalf("workers=%d fail=%v: got %v, want task %d's error", tc.workers, tc.fail, err, tc.want)
			}
			for i := range visits {
				v := visits[i].Load()
				// One worker claims in order and stops at the first
				// failure; several may already hold later indices.
				switch {
				case v > 1:
					t.Fatalf("workers=%d: index %d ran %d times", tc.workers, i, v)
				case v == 0 && (tc.want < 0 || i <= tc.want):
					t.Fatalf("workers=%d fail=%v: index %d never ran", tc.workers, tc.fail, i)
				case v == 1 && tc.want >= 0 && tc.workers <= 1 && i > tc.want:
					t.Fatalf("workers=%d fail=%v: index %d ran after the failure", tc.workers, tc.fail, i)
				}
			}
		}
	}
	if err := fanOut(4, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("n=0 ran a task: %v", err)
	}
}
