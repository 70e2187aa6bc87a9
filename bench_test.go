package repro_test

// The benchmark harness: one benchmark per table/figure of the paper (the
// E1-E14 index in DESIGN.md), plus micro-benchmarks of the hot substrate
// paths and ablation benches for the design knobs.
//
// Benchmarks run the experiments at reduced payload scale (the iteration
// dynamics and protocol parameters stay faithful); cmd/experiments runs
// the same code at full paper scale. Domain results are attached to each
// benchmark via b.ReportMetric: nmi (clustering accuracy), simsec
// (simulated measurement time), ratio (Fig. 4 locality), etc.

import (
	"io"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/nmi"
)

// benchScale keeps go test -bench=. tractable for the heavy sweep
// benchmarks: 5% of the 239 MB payload. Dataset-level benchmarks use
// datasetScale instead — a quarter payload, the smallest at which the
// multi-site clusterings converge within their benchmarked iteration
// counts (the per-edge signal scales with payload; see EXPERIMENTS.md).
const (
	benchScale   = 0.05
	datasetScale = 0.25
)

func runner(iters int) *experiments.Runner {
	return experiments.New(experiments.Config{
		Scale:      benchScale,
		Iterations: iters,
		Seed:       1,
		Out:        io.Discard,
	})
}

// BenchmarkFig4LocalVsRemote regenerates E1/Fig.4: per-edge fragment
// counts to a fixed node, local versus remote peers (BT dataset).
func BenchmarkFig4LocalVsRemote(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		data, err := runner(6).Fig4()
		if err != nil {
			b.Fatal(err)
		}
		ratio = data.Ratio
	}
	b.ReportMetric(ratio, "local/remote")
}

// BenchmarkFig5EdgeVariance regenerates E2/Fig.5: the single-run w(e)
// distribution of one fixed edge (B dataset).
func BenchmarkFig5EdgeVariance(b *testing.B) {
	var cv float64
	var zeros int
	for i := 0; i < b.N; i++ {
		data, err := runner(8).Fig5()
		if err != nil {
			b.Fatal(err)
		}
		cv = data.Summary.CoefficientOfVar
		zeros = data.ZeroRuns
	}
	b.ReportMetric(cv, "cv")
	b.ReportMetric(float64(zeros), "zero-runs")
}

// BenchmarkE3BroadcastScaling regenerates E3/§II-B: broadcast duration at
// 32/64/128 nodes and across message sizes.
func BenchmarkE3BroadcastScaling(b *testing.B) {
	var d32, d128 float64
	for i := 0; i < b.N; i++ {
		data, err := runner(0).Efficiency()
		if err != nil {
			b.Fatal(err)
		}
		d32, d128 = data.NodeDurations[0], data.NodeDurations[2]
	}
	b.ReportMetric(d32, "simsec-32nodes")
	b.ReportMetric(d128, "simsec-128nodes")
}

// BenchmarkE4BaselineCost regenerates E4: measurement cost of the
// BitTorrent method versus pairwise/triplet saturation tomography.
func BenchmarkE4BaselineCost(b *testing.B) {
	var oursSec, pairSec float64
	for i := 0; i < b.N; i++ {
		data, err := runner(5).Cost()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range data.Rows {
			if row.Nodes == 20 {
				switch row.Method {
				case "bittorrent (15 iters)":
					oursSec = row.Seconds
				case "pairwise idle":
					pairSec = row.Seconds
				}
			}
		}
	}
	b.ReportMetric(oursSec, "ours-simsec-20n")
	b.ReportMetric(pairSec, "pairwise-simsec-20n")
}

// BenchmarkE5NetPipe regenerates E5/§IV-A: point-to-point bandwidths.
func BenchmarkE5NetPipe(b *testing.B) {
	var intra, inter float64
	for i := 0; i < b.N; i++ {
		data, err := runner(0).NetPipe()
		if err != nil {
			b.Fatal(err)
		}
		intra, inter = data.IntraMbps, data.InterMbps
	}
	b.ReportMetric(intra, "intra-mbps")
	b.ReportMetric(inter, "inter-mbps")
}

// benchDataset runs one dataset end to end and reports its NMI.
func benchDataset(b *testing.B, name string, iters int) {
	b.Helper()
	var lastNMI float64
	var clusters int
	for i := 0; i < b.N; i++ {
		opts := repro.DefaultOptions()
		opts.Iterations = iters
		opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * datasetScale)
		res, err := repro.RunNamed(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		lastNMI = res.NMI
		clusters = res.Partition.NumClusters()
	}
	b.ReportMetric(lastNMI, "nmi")
	b.ReportMetric(float64(clusters), "clusters")
}

// BenchmarkE6TwoByTwo regenerates E6/§IV-B1 (single logical cluster).
func BenchmarkE6TwoByTwo(b *testing.B) { benchDataset(b, "2x2", 8) }

// BenchmarkE7DatasetB regenerates E7/Fig.8 (Bordeaux, 2 logical clusters).
func BenchmarkE7DatasetB(b *testing.B) { benchDataset(b, "B", 12) }

// BenchmarkE8DatasetBT regenerates E8/Fig.9 (NMI plateaus ≈0.6-0.7
// against the 3-part hierarchical truth).
func BenchmarkE8DatasetBT(b *testing.B) { benchDataset(b, "BT", 12) }

// BenchmarkE9DatasetGT regenerates E9/Fig.10 (one cluster per site).
func BenchmarkE9DatasetGT(b *testing.B) { benchDataset(b, "GT", 12) }

// BenchmarkE10DatasetBGT regenerates E10/Fig.11 (three sites).
func BenchmarkE10DatasetBGT(b *testing.B) { benchDataset(b, "BGT", 12) }

// BenchmarkE11DatasetBGTL regenerates E11/Fig.12 (four sites — the
// paper's hardest setting, needing the most iterations).
func BenchmarkE11DatasetBGTL(b *testing.B) { benchDataset(b, "BGTL", 30) }

// BenchmarkE12Convergence regenerates E12/Fig.13: the NMI-vs-iterations
// curves for all datasets (reduced iteration counts at bench scale).
func BenchmarkE12Convergence(b *testing.B) {
	var stable float64
	for i := 0; i < b.N; i++ {
		data, err := experiments.New(experiments.Config{
			Scale: datasetScale, Iterations: 12, Seed: 1, Out: io.Discard,
		}).Datasets()
		if err != nil {
			b.Fatal(err)
		}
		// Report the hardest setting's convergence point.
		for _, o := range data.Outcomes {
			if o.Name == "BGTL" {
				stable = float64(o.ConvergedAt)
			}
		}
	}
	b.ReportMetric(stable, "bgtl-stable-iter")
}

// BenchmarkE13LouvainVsInfomap regenerates E13/§III-D.
func BenchmarkE13LouvainVsInfomap(b *testing.B) {
	var lou, info float64
	for i := 0; i < b.N; i++ {
		data, err := runner(6).Ablation()
		if err != nil {
			b.Fatal(err)
		}
		lou, info = data.Rows[0].LouvainNMI, data.Rows[0].InfomapNMI
	}
	b.ReportMetric(lou, "louvain-nmi")
	b.ReportMetric(info, "infomap-nmi")
}

// BenchmarkE14Layout regenerates the Figs. 8-12 Kamada-Kawai embedding on
// a measured B-dataset graph.
func BenchmarkE14Layout(b *testing.B) {
	opts := repro.DefaultOptions()
	opts.Iterations = 4
	opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * benchScale)
	res, err := repro.RunNamed("B", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := layout.KamadaKawai(res.Graph, layout.DefaultOptions())
		if len(pos) != res.Graph.N() {
			b.Fatal("bad layout")
		}
	}
}

// --- parallel measurement benches ------------------------------------

// benchParallelBGTL runs the E11-class BGTL workload (the paper's hardest
// setting) with a given measurement fan-out. The Workers1/2/4 trio
// measures the scaling of the parallel pipeline; results are bit-identical
// across the trio, only wall-clock changes. Numbers to quote come from
// the same run as the repo benchmark's tomo-bgtl64 workload (bench/).
func benchParallelBGTL(b *testing.B, workers int) {
	b.Helper()
	var lastNMI float64
	for i := 0; i < b.N; i++ {
		opts := repro.DefaultOptions()
		opts.Iterations = 8
		opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * benchScale)
		opts.Workers = workers
		res, err := repro.RunNamed("BGTL", opts)
		if err != nil {
			b.Fatal(err)
		}
		lastNMI = res.NMI
	}
	b.ReportMetric(lastNMI, "nmi")
}

// BenchmarkParallelBGTLWorkers1 is the single-worker replica baseline.
func BenchmarkParallelBGTLWorkers1(b *testing.B) { benchParallelBGTL(b, 1) }

// BenchmarkParallelBGTLWorkers2 doubles the measurement fan-out.
func BenchmarkParallelBGTLWorkers2(b *testing.B) { benchParallelBGTL(b, 2) }

// BenchmarkParallelBGTLWorkers4 is the fan-out the CI bench smoke tracks.
func BenchmarkParallelBGTLWorkers4(b *testing.B) { benchParallelBGTL(b, 4) }

// --- substrate micro-benchmarks -------------------------------------

// BenchmarkBroadcast64Nodes measures one instrumented broadcast on the GT
// network at bench scale (the unit of the measurement phase).
func BenchmarkBroadcast64Nodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := repro.DefaultOptions()
		opts.Iterations = 1
		opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * benchScale)
		if _, err := repro.RunNamed("GT", opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxMinSolver measures the fluid bandwidth allocator with 256
// concurrent flows on a two-site topology — the simulator's hot path.
func BenchmarkMaxMinSolver(b *testing.B) {
	d, err := repro.NewDataset("GT")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		src := d.Hosts[rng.Intn(32)]
		dst := d.Hosts[32+rng.Intn(32)]
		d.Net.StartFlow(src, dst, 1e12, nil)
	}
	// Let the flows activate and the first solve happen.
	d.Eng.RunUntil(d.Eng.Now() + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb the flow set to force a re-solve.
		f := d.Net.StartFlow(d.Hosts[0], d.Hosts[63], 1e12, nil)
		d.Eng.RunUntil(d.Eng.Now() + 0.001)
		d.Net.CancelFlow(f)
		d.Eng.RunUntil(d.Eng.Now() + 0.001)
	}
	b.ReportMetric(float64(d.Net.Solves())/float64(b.N), "solves/op")
}

// BenchmarkLouvain64 measures the clustering phase alone on a dense
// 64-vertex measurement-like graph.
func BenchmarkLouvain64(b *testing.B) {
	g := syntheticMeasurement(64, 2, 4.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Louvain(g, rand.New(rand.NewSource(int64(i))))
		if res.Partition.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkInfomap64 measures the baseline clustering method.
func BenchmarkInfomap64(b *testing.B) {
	g := syntheticMeasurement(64, 2, 4.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Infomap(g, rand.New(rand.NewSource(int64(i))))
		if res.Partition.N() != 64 {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkNMI64 measures the LFK NMI evaluation.
func BenchmarkNMI64(b *testing.B) {
	truth := make([]int, 64)
	found := make([]int, 64)
	for i := range truth {
		truth[i] = i / 16
		found[i] = i / 8 % 4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := nmi.LFKPartition(truth, found)
		if v < 0 || v > 1 {
			b.Fatal("NMI out of range")
		}
	}
}

// --- ablation benches (design knobs called out in DESIGN.md) ---------

func benchKnob(b *testing.B, mutate func(*repro.Options)) {
	var lastNMI float64
	for i := 0; i < b.N; i++ {
		opts := repro.DefaultOptions()
		opts.Iterations = 10
		opts.BT.FileBytes = int(float64(opts.BT.FileBytes) * datasetScale)
		mutate(&opts)
		res, err := repro.RunNamed("GT", opts)
		if err != nil {
			b.Fatal(err)
		}
		lastNMI = res.NMI
	}
	b.ReportMetric(lastNMI, "nmi")
}

// BenchmarkAblationBatch4 varies the request batch granularity down.
func BenchmarkAblationBatch4(b *testing.B) {
	benchKnob(b, func(o *repro.Options) { o.BT.BatchFragments = 4 })
}

// BenchmarkAblationBatch64 varies the request batch granularity up.
func BenchmarkAblationBatch64(b *testing.B) {
	benchKnob(b, func(o *repro.Options) { o.BT.BatchFragments = 64 })
}

// BenchmarkAblationRotateRoot enables the §II-C root-rotation mitigation.
func BenchmarkAblationRotateRoot(b *testing.B) {
	benchKnob(b, func(o *repro.Options) { o.RotateRoot = true })
}

// BenchmarkAblationTopHalfEdges clusters on the top-50% edge filter the
// paper uses for its visualisations.
func BenchmarkAblationTopHalfEdges(b *testing.B) {
	benchKnob(b, func(o *repro.Options) { o.TopFraction = 0.5 })
}

// BenchmarkAblationNoPeerCap removes the 35-peer cap (§II-C), measuring
// every edge each run.
func BenchmarkAblationNoPeerCap(b *testing.B) {
	benchKnob(b, func(o *repro.Options) { o.BT.MaxPeers = 1 << 20 })
}

// syntheticMeasurement builds a graph shaped like an aggregated
// measurement: k planted clusters with intra weights `contrast` times the
// inter weights, plus noise.
func syntheticMeasurement(n, k int, contrast float64) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := 100 + 50*rng.Float64()
			if i%k == j%k {
				w *= contrast
			}
			g.AddWeight(i, j, w)
		}
	}
	return g
}
