// Package bittorrent simulates synchronized, instrumented BitTorrent
// broadcasts — the measurement instrument of the paper (§II).
//
// A broadcast distributes a file of M bytes, split into 16 KiB fragments,
// from one root (the initial seed) to every host, using the protocol
// features the paper identifies as the source of the metric's randomness:
//
//   - the tracker hands every client a random peer set capped at 35;
//   - each client uploads to at most 4 peers at a time, chosen by
//     tit-for-tat (reciprocation rate) plus one optimistic unchoke;
//   - piece selection is (sampled) rarest-first with random tie-breaking.
//
// Every client counts the fragments it receives per sending peer, exactly
// like the instrumented client of §II-A; the counts form the Result
// matrix from which the tomography metric w(e) is built.
package bittorrent

import "fmt"

// Default protocol parameters, matching the paper and the mainline client
// it instruments.
const (
	// DefaultFileBytes is the paper's broadcast payload: 15259 fragments
	// of 16 KiB ≈ 239 MB (§II-A).
	DefaultFileBytes = 15259 * DefaultFragmentSize
	// DefaultFragmentSize is the BitTorrent block size the paper counts.
	DefaultFragmentSize = 16 * 1024
	// DefaultMaxPeers is the mainline client's peer-set cap (§II-C).
	DefaultMaxPeers = 35
	// DefaultUploadSlots is the mainline client's parallel-upload limit
	// (§II-C): 3 tit-for-tat slots plus 1 optimistic slot.
	DefaultUploadSlots = 4
	// DefaultRechokeInterval is the mainline tit-for-tat period (seconds).
	DefaultRechokeInterval = 10.0
	// DefaultOptimisticInterval is the optimistic-unchoke rotation period.
	DefaultOptimisticInterval = 30.0
	// DefaultBatchFragments is the request-pipeline granularity: how many
	// fragments ride one simulated connection transfer. It trades event
	// count against fragment-count granularity and is an ablation knob
	// (experiments.Ablation).
	DefaultBatchFragments = 16
	// DefaultRarestSampling is how many candidate pieces the sampled
	// rarest-first selector weighs per request batch.
	DefaultRarestSampling = 3
	// DefaultPipelineBytes is the volume of outstanding requests a client
	// keeps per connection: the mainline client pipelines 5 requests of
	// 16 KiB. A connection's throughput is limited to PipelineBytes/RTT,
	// which is why a single BitTorrent stream across a high-latency WAN
	// runs far below link capacity — a key source of the locality
	// preference underlying the paper's metric.
	DefaultPipelineBytes = 5 * DefaultFragmentSize
)

// Config parameterises one broadcast.
type Config struct {
	FileBytes          int     // total payload; rounded up to whole fragments
	FragmentSize       int     // bytes per fragment
	MaxPeers           int     // tracker peer-set cap
	UploadSlots        int     // parallel uploads per client
	RechokeInterval    float64 // seconds between tit-for-tat re-rankings
	OptimisticInterval float64 // seconds between optimistic rotations
	BatchFragments     int     // fragments per request batch
	RarestSampling     int     // candidate multiplier for rarest-first
	PipelineBytes      int     // outstanding request window per connection
	Root               int     // host index of the initial seed
}

// DefaultConfig returns the paper's configuration with the given root.
func DefaultConfig() Config {
	return Config{
		FileBytes:          DefaultFileBytes,
		FragmentSize:       DefaultFragmentSize,
		MaxPeers:           DefaultMaxPeers,
		UploadSlots:        DefaultUploadSlots,
		RechokeInterval:    DefaultRechokeInterval,
		OptimisticInterval: DefaultOptimisticInterval,
		BatchFragments:     DefaultBatchFragments,
		RarestSampling:     DefaultRarestSampling,
		PipelineBytes:      DefaultPipelineBytes,
		Root:               0,
	}
}

// NumFragments returns the fragment count of the configured file,
// rounding the final partial fragment up, as BitTorrent does.
func (c Config) NumFragments() int {
	return (c.FileBytes + c.FragmentSize - 1) / c.FragmentSize
}

func (c Config) validate(numHosts int) error {
	switch {
	case numHosts < 2:
		return fmt.Errorf("bittorrent: need at least 2 hosts, have %d", numHosts)
	case c.FileBytes <= 0:
		return fmt.Errorf("bittorrent: FileBytes must be positive, got %d", c.FileBytes)
	case c.FragmentSize <= 0:
		return fmt.Errorf("bittorrent: FragmentSize must be positive, got %d", c.FragmentSize)
	case c.MaxPeers < 1:
		return fmt.Errorf("bittorrent: MaxPeers must be at least 1, got %d", c.MaxPeers)
	case c.UploadSlots < 1:
		return fmt.Errorf("bittorrent: UploadSlots must be at least 1, got %d", c.UploadSlots)
	case c.RechokeInterval <= 0:
		return fmt.Errorf("bittorrent: RechokeInterval must be positive, got %g", c.RechokeInterval)
	case c.OptimisticInterval <= 0:
		return fmt.Errorf("bittorrent: OptimisticInterval must be positive, got %g", c.OptimisticInterval)
	case c.BatchFragments < 1:
		return fmt.Errorf("bittorrent: BatchFragments must be at least 1, got %d", c.BatchFragments)
	case c.RarestSampling < 1:
		return fmt.Errorf("bittorrent: RarestSampling must be at least 1, got %d", c.RarestSampling)
	case c.PipelineBytes < 1:
		return fmt.Errorf("bittorrent: PipelineBytes must be at least 1, got %d", c.PipelineBytes)
	case c.Root < 0 || c.Root >= numHosts:
		return fmt.Errorf("bittorrent: Root %d out of range [0,%d)", c.Root, numHosts)
	}
	return nil
}
