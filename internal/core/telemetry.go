package core

import (
	"time"

	"repro/internal/telemetry"
)

// Pipeline metrics, registered in the process-wide telemetry registry.
// Counters aggregate across every run in the process; the per-run
// breakdown lives in Result.Phases and the run's trace.
var (
	mIterations = telemetry.Default().Counter("repro_core_iterations_total",
		"measurement iterations completed")
	mMeasureSeconds = telemetry.Default().Counter("repro_core_measure_seconds_total",
		"wall-clock seconds spent measuring broadcasts (includes replica cloning)")
	mMergeSeconds = telemetry.Default().Counter("repro_core_merge_seconds_total",
		"wall-clock seconds spent merging fragment counts")
	mClusterSeconds = telemetry.Default().Counter("repro_core_cluster_seconds_total",
		"wall-clock seconds spent in Louvain clustering")
	mNMISeconds = telemetry.Default().Counter("repro_core_nmi_seconds_total",
		"wall-clock seconds spent scoring NMI")
	mIterationSeconds = telemetry.Default().Histogram("repro_core_iteration_seconds",
		"per-iteration broadcast measurement duration", nil)
)

// PhaseTimings breaks a run's wall-clock cost down by pipeline phase.
// It is observability only: populated on every run (from the run's
// tracer), excluded from archives, aggregates and content hashes, and
// never compared byte-for-byte. Clone time is a sub-interval of measure
// time (the sim substrate prepares its replica inside the measurement),
// so the named phases do not sum to WallSeconds.
type PhaseTimings struct {
	// MeasureSeconds is wall-clock time inside substrate measurements,
	// summed over iterations; with Workers > 1 concurrent iterations
	// each contribute their full duration, so this exceeds elapsed time.
	MeasureSeconds float64 `json:"measure_seconds"`
	// MeasureCount is the number of measured iterations.
	MeasureCount int `json:"measure_count"`
	// CloneSeconds is time spent preparing an engine+network replica for
	// each iteration — take an idle one or clone one, reset it, replay
	// dynamics onto it; part of measure time.
	CloneSeconds float64 `json:"clone_seconds"`
	// MergeSeconds is time folding fragment counts into the aggregate.
	MergeSeconds float64 `json:"merge_seconds"`
	// ClusterSeconds is time in Louvain clustering.
	ClusterSeconds float64 `json:"cluster_seconds"`
	// NMISeconds is time scoring partitions against the ground truth.
	NMISeconds float64 `json:"nmi_seconds"`
	// WallSeconds is the run's total elapsed wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
}

// phaseTimings derives a run's phase breakdown from the spans its
// tracer recorded after mark.
func phaseTimings(tr *telemetry.Tracer, mark int, wall time.Duration) PhaseTimings {
	tot := tr.TotalsSince(mark)
	return PhaseTimings{
		MeasureSeconds: tot["measure"].Seconds,
		MeasureCount:   tot["measure"].Count,
		CloneSeconds:   tot["clone"].Seconds,
		MergeSeconds:   tot["merge"].Seconds,
		ClusterSeconds: tot["cluster"].Seconds,
		NMISeconds:     tot["nmi"].Seconds,
		WallSeconds:    wall.Seconds(),
	}
}
