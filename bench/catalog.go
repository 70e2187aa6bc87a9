package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The catalog is the benchmark's definition: the workloads, the gated
// end-to-end metrics and the ungated per-layer metrics, each per-layer
// metric with the end-to-end metric it is expected to move and where.
// BENCHMARK.json at the repository root is generated from it
// (`bench -benchmark-json`) and bench_test.go asserts the two agree.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
// The driver makes 4 + 22 x 5 runs inside 3420 s with two cold builds (a
// minute or two each), about 28 s a run. Set-up, the warm-up repetition
// and the repetition that is running when the time is up add 5-12 s to
// this, more when the host is busy. Between runs of the same code the
// times spread as wide at 15 s as at 12 s: the interference drifts over
// minutes, and tomo-fattree256 fits three repetitions either way.
const runSeconds = 12

// Workload names, cited by later issues.
const (
	wBGTL    = "tomo-bgtl64"
	wFatTree = "tomo-fattree256"
	wDrift   = "tomo-drift96"
	wAnalyze = "analyze-1k"
	wServe   = "serve-archive1k"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wBGTL, "The ROADMAP reference run (BGTL, 64 hosts, 8 iterations, 5% payload, Workers=1): simnet solve and bittorrent deliver do most of the work, core merge/cluster about 6%."},
	{wFatTree, "Largest host count that fits (256): concurrent flows and need-lists grow with N, so asymptotic solver and piece-selection wins show here and barely on tomo-bgtl64; the O(N^2) memory case."},
	{wDrift, "Same sim layers used differently: a Clone plus timeline Apply per iteration, mid-broadcast link changes and churned hosts; a cache that pays on invalidation or per-clone set-up loses here."},
	{wAnalyze, "The paper's phase 2 alone on a planted 1024-vertex complete graph: graph, cluster, nmi and persist do all the work and the simulator none; bypasses every simulator optimisation."},
	{wServe, "Closed-loop HTTP mix (half conditional GETs expecting 304) over a 1000-run campaign archive: archive, events and serve do all the work, the simulator none; 304s still cost a full body."},
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every end-to-end metric is defined on every workload: the driver
// expects each untraced run to print all of them. "Per rep" means per
// repetition of the workload's unit of work (see README.md).
//
// Both times are guest seconds: elapsed time minus the time the
// hypervisor gave the sandbox's CPUs to other guests (guestSeconds in
// measure.go says why and what that buys). CPU seconds per rep are not
// gated: the kernel charges an unknowable part of the stolen time to the
// running process (a tomo-bgtl64 rep reads 0.77 CPU s at no steal and
// 1.01 s at 20%), so between runs of the same code they spread 20%
// where guest wall time spreads 8%; the traced run reports run_cpu_s
// (ISSUE 11: a metric that cannot hold its bound is demoted to the
// per-layer list). With one runnable thread on every workload the two
// agree to a few percent on a quiet machine anyway. The time bounds are
// the widest the driver allows, since the steal-free remainder still
// drifts 5-10% over minutes; the allocation counts repeat to 0.00% at
// fixed inputs, so they are the sharp gate.
var e2eDefs = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_wall_s", "s", "lower", 0.25},
	{"run_allocs", "count", "lower", 0.05},
	{"run_alloc_mb", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves is the end-to-end metric this layer metric should move and
	// On the workloads where it should; "" / nil marks a statistic that
	// is recorded but expected to move nothing gated.
	Moves string   `json:"-"`
	On    []string `json:"-"`
}

var (
	onTomo     = []string{wBGTL, wFatTree, wDrift}
	everywhere = []string{wBGTL, wFatTree, wDrift, wAnalyze, wServe}
)

var layerDefs = []layerDef{
	// Demoted end-to-end metrics: user-visible, but too noisy to gate
	// (run_cpu_s) or defined on some workloads only (README.md).
	{"run_cpu_s", "s", "lower", "", everywhere},
	{"nmi", "1", "higher", "", nil},
	{"sim_seconds", "s", "lower", "", nil},
	{"cold_cells_per_s", "1/s", "higher", "", []string{wServe}},
	{"warm_resume_s", "s", "lower", "", []string{wServe}},
	{"serve_req_per_s", "1/s", "higher", "run_wall_s", []string{wServe}},
	{"serve_p50_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve_p99_ms", "ms", "lower", "run_wall_s", []string{wServe}},

	{"sim.events", "count", "lower", "run_wall_s", onTomo},
	{"sim.events_per_s", "1/s", "higher", "run_wall_s", onTomo},
	{"sim.event_ns", "ns", "lower", "run_wall_s", onTomo},

	{"simnet.solves", "count", "lower", "run_wall_s", onTomo},
	{"simnet.solve_us.f64", "us", "lower", "run_wall_s", []string{wBGTL, wDrift}},
	{"simnet.solve_us.f512", "us", "lower", "run_wall_s", onTomo},
	{"simnet.solve_us.f2048", "us", "lower", "run_wall_s", []string{wFatTree}},
	{"simnet.clone_us", "us", "lower", "run_wall_s", []string{wDrift}},
	{"simnet.path_cold_us", "us", "lower", "run_wall_s", []string{wDrift}},

	{"bittorrent.broadcast_s", "s", "lower", "run_wall_s", onTomo},
	{"bittorrent.fragments", "count", "lower", "", nil},
	{"bittorrent.frag_per_s", "1/s", "higher", "run_wall_s", onTomo},
	{"bittorrent.sim_s_per_broadcast", "s", "lower", "", nil},

	{"substrate.measure_s", "s", "lower", "run_wall_s", []string{wDrift}},
	{"substrate.overhead_s", "s", "lower", "run_wall_s", []string{wDrift}},

	{"dynamics.events", "count", "lower", "", nil},
	{"dynamics.apply_us", "us", "lower", "run_wall_s", []string{wDrift}},

	{"core.measure_s", "s", "lower", "run_wall_s", onTomo},
	{"core.clone_s", "s", "lower", "run_wall_s", []string{wDrift}},
	{"core.merge_s", "s", "lower", "run_wall_s", []string{wBGTL}},
	{"core.cluster_s", "s", "lower", "run_wall_s", []string{wBGTL}},
	{"core.nmi_s", "s", "lower", "run_wall_s", []string{wBGTL}},
	{"core.parallel_wall_s", "s", "lower", "", []string{wDrift}},

	{"graph.build_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"cluster.louvain_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"cluster.modularity_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"cluster.clusters", "count", "lower", "", nil},
	{"nmi.lfk_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"core.hierarchy_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"core.bottlenecks_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"persist.graph_read_s", "s", "lower", "run_wall_s", []string{wAnalyze}},
	{"persist.graph_write_s", "s", "lower", "run_wall_s", []string{wAnalyze}},

	{"scenario.compile_ms", "ms", "lower", "setup_s", onTomo},

	{"campaign.expand_ms", "ms", "lower", "", []string{wServe}},
	{"campaign.cold_cell_ms", "ms", "lower", "", []string{wServe}},
	{"campaign.direct_cell_ms", "ms", "lower", "", []string{wServe}},
	{"campaign.overhead_cell_ms", "ms", "lower", "", []string{wServe}},
	{"campaign.warm_cell_us", "us", "lower", "", []string{wServe}},
	{"campaign.hits", "count", "higher", "", nil},
	{"campaign.misses", "count", "lower", "", nil},

	{"fleet.claim_release_per_s", "1/s", "higher", "", []string{wServe}},
	{"fleet.append_index_per_s", "1/s", "higher", "", []string{wServe}},
	{"fleet.read_index_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"persist.write_atomic_us", "us", "lower", "", []string{wServe}},
	{"persist.load_result_us", "us", "lower", "run_wall_s", []string{wServe}},

	{"archive.stamp_us", "us", "lower", "run_wall_s", []string{wServe}},
	{"archive.runs_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"archive.get_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"archive.status_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"archive.marginals_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"archive.tail_full_ms", "ms", "lower", "", nil},
	{"archive.tail_idle_us", "us", "lower", "", nil},
	{"events.first_poll_ms", "ms", "lower", "", nil},
	{"events.first_poll_events", "count", "lower", "", nil},
	{"events.idle_poll_us", "us", "lower", "", nil},

	{"serve.runs_200_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.runs_304_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.status_200_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.get_200_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.marginals_200_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.plot_200_ms", "ms", "lower", "run_wall_s", []string{wServe}},
	{"serve.cond_cost_ratio", "1", "lower", "run_wall_s", []string{wServe}},

	{"wire.swarm_mbps", "MB/s", "higher", "", nil},
	{"wire.codec_msgs_per_s", "1/s", "higher", "", nil},

	{"telemetry.span_ns", "ns", "lower", "", nil},
	{"telemetry.overhead_pct", "%", "lower", "run_wall_s", everywhere},

	{"cpu_share.simnet", "%", "lower", "run_wall_s", onTomo},
	{"cpu_share.bittorrent", "%", "lower", "run_wall_s", onTomo},
	{"cpu_share.sim", "%", "lower", "run_wall_s", onTomo},
	{"cpu_share.core", "%", "lower", "run_wall_s", []string{wBGTL, wAnalyze}},
	{"cpu_share.cluster", "%", "lower", "run_wall_s", []string{wAnalyze}},
	{"cpu_share.graph", "%", "lower", "run_wall_s", []string{wAnalyze}},
	{"cpu_share.persist", "%", "lower", "run_wall_s", []string{wAnalyze}},
	{"cpu_share.archive", "%", "lower", "run_wall_s", []string{wServe}},
	{"cpu_share.runtime", "%", "lower", "run_wall_s", everywhere},
	{"cpu_share.other", "%", "lower", "run_wall_s", []string{wServe}},
}

// cpuSharePackages maps each cpu_share.* metric to the package prefixes
// whose flat CPU samples it sums; anything else lands in cpu_share.other.
var cpuSharePackages = map[string][]string{
	"cpu_share.simnet":     {"repro/internal/simnet."},
	"cpu_share.bittorrent": {"repro/internal/bittorrent."},
	"cpu_share.sim":        {"repro/internal/sim."},
	"cpu_share.core":       {"repro/internal/core."},
	"cpu_share.cluster":    {"repro/internal/cluster."},
	"cpu_share.graph":      {"repro/internal/graph."},
	"cpu_share.persist":    {"repro/internal/persist."},
	"cpu_share.archive":    {"repro/internal/archive"},
	// Since Go 1.24 the map implementation lives in internal/runtime.
	"cpu_share.runtime": {"runtime", "internal/runtime/"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// benchmarkJSON renders the driver-facing BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   e2eDefs,
		PerLayer:   layerDefs,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// metric is one reported value. Q1, Q3 and N describe the samples the
// value is the median of; N == 1 marks a single measurement.
type metric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// layerValues collects per-layer metric values of a traced run; names
// the workload did not exercise stay absent and are reported as 0.
type layerValues map[string]float64

// finish fills in 0 for every per-layer metric the workload does not
// exercise (the driver expects every name on every traced run) and
// rejects names the catalog does not declare.
func (lv layerValues) finish() (map[string]metric, error) {
	out := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		v := lv[d.Name]
		out[d.Name] = metric{Unit: d.Unit, Value: v, Q1: v, Q3: v, N: 1}
	}
	var unknown []string
	for name := range lv {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("per-layer metrics not in the catalog: %v", unknown)
	}
	return out, nil
}
