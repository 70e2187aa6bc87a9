package experiments

// E2 / Fig. 5: distribution of the single-run metric for one fixed edge —
// high variance, many zero runs — contrasted with the near-deterministic
// NetPIPE measurement (§II-C).

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bittorrent"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig5Data is the result of the edge-variance experiment.
type Fig5Data struct {
	// Samples holds w(e) of the fixed intra-cluster edge for each
	// independent single run.
	Samples []float64
	Summary stats.Summary
	// ZeroRuns is the number of runs in which the two peers exchanged no
	// data (23 of 36 in the paper).
	ZeroRuns int
	// Histogram is the Fig. 5 histogram.
	Histogram *stats.Histogram
	// NetPipeMbps and NetPipeSpread quantify the comparison measurement:
	// repeated NetPIPE probes of the same link (dense around 890 Mbit/s
	// in the paper).
	NetPipeMbps   float64
	NetPipeSpread float64
}

// Fig5 reproduces Fig. 5: 36 independent single-run measurements of one
// fixed edge between two nodes of the same Bordeaux compute cluster.
func (r *Runner) Fig5() (*Fig5Data, error) {
	iters := 36
	if r.cfg.Iterations > 0 {
		iters = r.cfg.Iterations
	}
	d, err := scenario.New("B")
	if err != nil {
		return nil, err
	}
	cfg := bittorrent.DefaultConfig()
	cfg.FileBytes = r.options(1).BT.FileBytes
	rng := sim.NewRNG(r.cfg.Seed)
	const a, b = 2, 3 // two Bordeplage nodes: one intra-cluster edge
	data := &Fig5Data{}
	// The runs follow one another on one live engine, so one Broadcaster
	// carries the swarm's storage from each to the next.
	var bc bittorrent.Broadcaster
	for it := 0; it < iters; it++ {
		res, err := bc.Run(d.Eng, d.Net, d.Hosts, cfg, rng.Streamf("fig5", it))
		if err != nil {
			return nil, err
		}
		w := float64(res.Exchanged(a, b))
		data.Samples = append(data.Samples, w)
		if w == 0 {
			data.ZeroRuns++
		}
	}
	data.Summary = stats.Summarize(data.Samples)
	hi := data.Summary.Max
	if hi <= 0 {
		hi = 1
	}
	data.Histogram = stats.NewHistogram(data.Samples, 0, hi+1, 12)

	// The stable comparison measurement: repeated NetPIPE probes.
	var probes []float64
	for k := 0; k < 5; k++ {
		np, err := baseline.NetPipe(d.Eng, d.Net, d.Hosts[a], d.Hosts[b], 32<<20)
		if err != nil {
			return nil, err
		}
		probes = append(probes, np.MaxMbps)
	}
	ps := stats.Summarize(probes)
	data.NetPipeMbps = ps.Mean
	data.NetPipeSpread = ps.Max - ps.Min

	t := &report.Table{
		Title:  "E2 / Fig.5 — single-run w(e) distribution for a fixed intra-cluster edge (B dataset)",
		Header: []string{"measure", "value"},
		Caption: "paper's shape: most runs exchange nothing, the rest spread over a heavy tail; " +
			"NetPIPE on the same link is dense around 890 Mbit/s",
	}
	t.AddRow("runs", data.Summary.N)
	t.AddRow("zero-exchange runs", data.ZeroRuns)
	t.AddRow("min w(e)", data.Summary.Min)
	t.AddRow("max w(e)", data.Summary.Max)
	t.AddRow("mean w(e)", data.Summary.Mean)
	t.AddRow("stddev w(e)", data.Summary.StdDev)
	t.AddRow("coefficient of variation", data.Summary.CoefficientOfVar)
	t.AddRow("NetPIPE mean (Mbit/s)", data.NetPipeMbps)
	t.AddRow("NetPIPE spread (Mbit/s)", data.NetPipeSpread)
	if err := r.emit(t); err != nil {
		return nil, err
	}
	hist := &report.SVGBars{Title: "Fig.5 — runs per single-run w(e) bin"}
	for i, c := range data.Histogram.Counts {
		lo := data.Histogram.Lo + float64(i)*data.Histogram.BinWidth
		hist.Add(fmt.Sprintf("%.0f-%.0f", lo, lo+data.Histogram.BinWidth), float64(c))
	}
	if err := r.save("fig5_hist.svg", hist.WriteSVG); err != nil {
		return nil, err
	}
	samples := &report.Table{Header: []string{"run", "w"}}
	for i, w := range data.Samples {
		samples.AddRow(i+1, w)
	}
	return data, r.saveCSV("fig5_samples.csv", samples)
}

// E3 / §II-B: broadcast efficiency — near-constant completion time in the
// number of peers, linear in the message size.

// EfficiencyData is the result of the broadcast-efficiency experiment.
type EfficiencyData struct {
	// NodeDurations[i] is the broadcast duration with Nodes[i] peers.
	Nodes         []int
	NodeDurations []float64
	// SizeFractions/SizeDurations sweep the message size at 64 nodes.
	SizeFractions []float64
	SizeDurations []float64
}

// Efficiency reproduces the §II-B claims: 32, 64 and 128 nodes spread
// over 4 sites broadcast the same file in roughly the same time (~20 s on
// Grid'5000), while halving the message size roughly halves the time.
func (r *Runner) Efficiency() (*EfficiencyData, error) {
	data := &EfficiencyData{}
	base := r.options(1)
	rng := sim.NewRNG(r.cfg.Seed)
	for _, n := range []int{32, 64, 128} {
		d, err := scenario.FlatSites(4, n/4).Compile()
		if err != nil {
			return nil, err
		}
		res, err := bittorrent.RunBroadcast(d.Eng, d.Net, d.Hosts, base.BT, rng.Streamf("eff-nodes", n))
		if err != nil {
			return nil, err
		}
		data.Nodes = append(data.Nodes, n)
		data.NodeDurations = append(data.NodeDurations, res.Duration)
	}
	tn := &report.Table{
		Title:   "E3a / §II-B — broadcast time vs peer count (4 sites, same file)",
		Header:  []string{"nodes", "duration (s)"},
		Caption: "paper's shape: ~constant (~20 s at 239 MB on Grid'5000)",
	}
	for i := range data.Nodes {
		tn.AddRow(data.Nodes[i], data.NodeDurations[i])
	}
	if err := r.emit(tn); err != nil {
		return nil, err
	}

	for _, frac := range []float64{0.25, 0.5, 1.0} {
		d, err := scenario.FlatSites(4, 16).Compile()
		if err != nil {
			return nil, err
		}
		cfg := base.WithScale(frac).BT
		res, err := bittorrent.RunBroadcast(d.Eng, d.Net, d.Hosts, cfg, rng.Streamf("eff-size", int(frac*100)))
		if err != nil {
			return nil, err
		}
		data.SizeFractions = append(data.SizeFractions, frac)
		data.SizeDurations = append(data.SizeDurations, res.Duration)
	}
	ts := &report.Table{
		Title:   "E3b / §II-B — broadcast time vs message size (64 nodes)",
		Header:  []string{"size fraction", "duration (s)"},
		Caption: "paper's shape: O(M), linear in the message size",
	}
	for i := range data.SizeFractions {
		ts.AddRow(data.SizeFractions[i], data.SizeDurations[i])
	}
	return data, r.publish("e3_efficiency.csv", ts)
}
