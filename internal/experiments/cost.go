package experiments

// E4 / §I+§II-B: measurement-cost comparison between the BitTorrent
// method and traditional saturation tomography; E5 / §IV-A: NetPIPE
// point-to-point ground truth.

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/nmi"
	"repro/internal/report"
	"repro/internal/scenario"
)

// CostRow is one method/size cost measurement.
type CostRow struct {
	Method  string
	Nodes   int
	Probes  int
	Seconds float64 // simulated measurement time
	NMI     float64 // reconstruction quality vs the bottleneck truth
}

// CostData is the result of the cost comparison.
type CostData struct {
	Rows  []CostRow
	Table *report.Table
}

// Cost compares measurement procedures on a Bordeaux-style bottlenecked
// network at several node counts:
//
//   - the paper's method (15 broadcast iterations — enough for its
//     hardest setting),
//   - idle pairwise saturation, O(N²) probes (the [13] procedure that
//     took ~1 hour for 20 nodes),
//   - pairwise saturation under load, O(N²) probes (finds the bottleneck
//     but pays the same bill),
//   - triplet interference probing, O(N³) probes (the [12] family).
//
// Probe payloads reproduce realistic saturation-measurement costs
// (~18 s/probe); the BitTorrent payload follows Config.Scale.
func (r *Runner) Cost() (*CostData, error) {
	data := &CostData{}
	addRow := func(row CostRow) {
		data.Rows = append(data.Rows, row)
	}
	for _, n := range []int{8, 16, 20} {
		half := n / 2
		site, err := scenario.BordeauxScaled(half, n-half, 0).Compile()
		if err != nil {
			return nil, err
		}
		truth := site.GroundTruth

		// BitTorrent tomography (ours). It measures on replicas, so site
		// stays idle and every baseline below probes its own fresh copy.
		opts := r.options(15)
		res, err := core.RunDataset(site, opts)
		if err != nil {
			return nil, err
		}
		addRow(CostRow{
			Method: "bittorrent (15 iters)", Nodes: n,
			Probes:  opts.Iterations,
			Seconds: res.TotalMeasurementTime,
			NMI:     res.NMI,
		})

		// Idle pairwise (blind to the bottleneck by design).
		d := site.Replicate()
		rep, err := baseline.Pairwise(d.Eng, d.Net, d.Hosts, baseline.DefaultProbeBytes, rand.New(rand.NewSource(r.cfg.Seed)))
		if err != nil {
			return nil, err
		}
		addRow(CostRow{
			Method: "pairwise idle", Nodes: n,
			Probes: rep.Probes, Seconds: rep.MeasurementTime,
			NMI: nmi.LFKPartition(truth, rep.Partition.Labels),
		})

		// Loaded pairwise (can find it, same O(N²) bill).
		d = site.Replicate()
		rep, err = baseline.PairwiseLoaded(d.Eng, d.Net, d.Hosts, baseline.DefaultProbeBytes, rand.New(rand.NewSource(r.cfg.Seed)))
		if err != nil {
			return nil, err
		}
		addRow(CostRow{
			Method: "pairwise loaded", Nodes: n,
			Probes: rep.Probes, Seconds: rep.MeasurementTime,
			NMI: nmi.LFKPartition(truth, rep.Partition.Labels),
		})

		// Triplet interference, O(N³): only at the smaller sizes — the
		// point is precisely that it does not scale.
		if n <= 16 {
			d = site.Replicate()
			rep, err = baseline.TripletInterference(d.Eng, d.Net, d.Hosts, baseline.DefaultProbeBytes, rand.New(rand.NewSource(r.cfg.Seed)))
			if err != nil {
				return nil, err
			}
			addRow(CostRow{
				Method: "triplet interference", Nodes: n,
				Probes: rep.Probes, Seconds: rep.MeasurementTime,
				NMI: nmi.LFKPartition(truth, rep.Partition.Labels),
			})
		}
	}
	t := &report.Table{
		Title:  "E4 — measurement cost and reconstruction quality on a bottlenecked site",
		Header: []string{"method", "nodes", "probes", "sim time (s)", "NMI vs truth"},
		Caption: "paper's shape: traditional procedures take hours (≈1 h at 20 nodes for O(N²)) and " +
			"either miss the bottleneck or do not scale; broadcasts take minutes",
	}
	for _, row := range data.Rows {
		t.AddRow(row.Method, row.Nodes, row.Probes, row.Seconds, fin(row.NMI))
	}
	data.Table = t
	if err := r.emit(t); err != nil {
		return nil, err
	}
	return data, r.saveCSV("e4_cost.csv", t)
}

// NetPipeData is the point-to-point ground-truth table (E5).
type NetPipeData struct {
	IntraMbps, InterMbps, CrossBottleneckMbps float64
	Table                                     *report.Table
}

// NetPipe reproduces the §IV-A measurements: ~890 Mbit/s inside an
// Ethernet cluster, ~787 Mbit/s between sites, and — the key observation —
// the same full ~890 Mbit/s across the Bordeaux bottleneck when measured
// in isolation, which is why point-to-point probing cannot see it.
func (r *Runner) NetPipe() (*NetPipeData, error) {
	data := &NetPipeData{}
	d, err := scenario.New("B")
	if err != nil {
		return nil, err
	}
	intra, err := baseline.NetPipe(d.Eng, d.Net, d.Hosts[0], d.Hosts[1], 64<<20)
	if err != nil {
		return nil, err
	}
	data.IntraMbps = intra.MaxMbps
	cross, err := baseline.NetPipe(d.Eng, d.Net, d.Hosts[0], d.Hosts[40], 64<<20)
	if err != nil {
		return nil, err
	}
	data.CrossBottleneckMbps = cross.MaxMbps
	g, err := scenario.New("GT")
	if err != nil {
		return nil, err
	}
	inter, err := baseline.NetPipe(g.Eng, g.Net, g.Hosts[0], g.Hosts[32], 64<<20)
	if err != nil {
		return nil, err
	}
	data.InterMbps = inter.MaxMbps

	t := &report.Table{
		Title:  "E5 / §IV-A — NetPIPE point-to-point achievable bandwidth",
		Header: []string{"path", "Mbit/s", "paper"},
		Caption: "isolated probes reach full speed even across the Dell-Cisco bottleneck — " +
			"the blindness motivating the paper",
	}
	t.AddRow("intra-cluster (Bordeaux)", data.IntraMbps, "≈890")
	t.AddRow("inter-site (Grenoble-Toulouse)", data.InterMbps, "≈787")
	t.AddRow("across Bordeaux bottleneck (idle)", data.CrossBottleneckMbps, "n/a (invisible)")
	data.Table = t
	if err := r.emit(t); err != nil {
		return nil, err
	}
	return data, r.saveCSV("e5_netpipe.csv", t)
}
