package experiments

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// requireXML fails unless the file exists and is a well-formed XML
// document with an <svg> root.
func requireXML(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact: %v", err)
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	var root string
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("%s is not well-formed XML: %v", path, err)
		}
		if el, ok := tok.(xml.StartElement); ok && root == "" {
			root = el.Name.Local
		}
	}
	if root != "svg" {
		t.Fatalf("%s has root element %q, want svg", path, root)
	}
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
	if !strings.Contains(out.String(), "Fig.5") {
		t.Fatal("table not emitted")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_samples.csv")); err != nil {
		t.Fatal("fig5 CSV not written")
	}
	requireXML(t, filepath.Join(dir, "fig5_hist.svg"))
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
	for _, f := range []string{"fig13_nmi.csv", "layout_B.dot"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s", f)
		}
	}
	for _, f := range []string{"fig13_nmi.svg", "layout_B.svg"} {
		requireXML(t, filepath.Join(dir, f))
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

// TestDatasetsOutputIsIdenticalAcrossWorkers: Workers is each run's
// core.Options.Workers, so the emitted tables, plot and CSV series are
// byte for byte those of a single-worker run.
func TestDatasetsOutputIsIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset suite runs twice; core's own tests race the worker pool")
	}
	run := func(workers int) (string, map[string][]byte) {
		var sb strings.Builder
		dir := t.TempDir()
		r := New(Config{Scale: 0.05, Iterations: 2, Seed: 1, Out: &sb, DataDir: dir, Workers: workers})
		if _, err := r.Datasets(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return sb.String(), files
	}
	out1, files1 := run(1)
	out3, files3 := run(3)
	if out1 != out3 {
		t.Fatalf("Workers 3 output differs from Workers 1:\n--- 1 ---\n%s\n--- 3 ---\n%s", out1, out3)
	}
	if len(files1) == 0 || len(files1) != len(files3) {
		t.Fatalf("artifact sets differ: %d files at Workers 1, %d at Workers 3", len(files1), len(files3))
	}
	for name, data := range files1 {
		if !bytes.Equal(data, files3[name]) {
			t.Fatalf("%s differs between Workers 1 and Workers 3", name)
		}
	}
}
