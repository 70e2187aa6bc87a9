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
// Two kinds of protocol setting exist. The tit-for-tat period (10 s), the
// optimistic-unchoke period (30 s), the rarest-first sampling factor (×3)
// and the request pipeline (5 requests of 16 KiB per connection) are the
// mainline client's and fixed: they are unexported constants. The peer-set
// cap, the upload slots and the fragments per simulated transfer are
// Config fields, because experiments.Ablation varies them; the payload
// and fragment size are Config fields because the scale of a run sets
// them.
//
// Every client counts the fragments it receives per sending peer, exactly
// like the instrumented client of §II-A; the counts form the Result's
// pairs, from which the tomography metric w(e) is built.
package bittorrent

import (
	"fmt"
	"math"
)

// Default protocol parameters, matching the paper and the mainline client
// it instruments. Each is the default of the Config field of the same name.
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
	// DefaultBatchFragments is the request-pipeline granularity: how many
	// fragments ride one simulated connection transfer. It trades event
	// count against fragment-count granularity and is an ablation knob
	// (experiments.Ablation).
	DefaultBatchFragments = 16
)

// The mainline client's fixed protocol settings. No experiment varies
// them, so they are not Config fields.
const (
	// rechokeInterval is the tit-for-tat re-ranking period (seconds).
	rechokeInterval = 10.0
	// optimisticInterval is the optimistic-unchoke rotation period.
	optimisticInterval = 30.0
	// rarestSampling is how many candidate pieces per requested fragment
	// the sampled rarest-first selector weighs.
	rarestSampling = 3
	// pipelineBytes is the volume of outstanding requests a client keeps
	// per connection: the mainline client pipelines 5 requests of 16 KiB.
	// A connection's throughput is limited to pipelineBytes/RTT, which is
	// why a single BitTorrent stream across a high-latency WAN runs far
	// below link capacity — a key source of the locality preference
	// underlying the paper's metric.
	pipelineBytes = 5 * DefaultFragmentSize
)

// Config parameterises one broadcast.
type Config struct {
	FileBytes      int // total payload; rounded up to whole fragments
	FragmentSize   int // bytes per fragment
	MaxPeers       int // tracker peer-set cap
	UploadSlots    int // parallel uploads per client
	BatchFragments int // fragments per request batch
	Root           int // host index of the initial seed
}

// DefaultConfig returns the paper's configuration with host 0 as root.
func DefaultConfig() Config {
	return Config{
		FileBytes:      DefaultFileBytes,
		FragmentSize:   DefaultFragmentSize,
		MaxPeers:       DefaultMaxPeers,
		UploadSlots:    DefaultUploadSlots,
		BatchFragments: DefaultBatchFragments,
		Root:           0,
	}
}

// NumFragments returns the fragment count of the configured file,
// rounding the final partial fragment up, as BitTorrent does. It cannot
// overflow, whatever FileBytes is.
func (c Config) NumFragments() int {
	n := c.FileBytes / c.FragmentSize
	if c.FileBytes%c.FragmentSize != 0 {
		n++
	}
	return n
}

// Validate reports why a broadcast of c over numHosts hosts cannot run,
// before anything is allocated for it: a backend calls it first, so a
// payload no swarm can index is an error, not an attempt.
func (c Config) Validate(numHosts int) error {
	switch {
	case numHosts < 2:
		return fmt.Errorf("bittorrent: need at least 2 hosts, have %d", numHosts)
	case c.FileBytes <= 0:
		return fmt.Errorf("bittorrent: FileBytes must be positive, got %d", c.FileBytes)
	case c.FragmentSize <= 0:
		return fmt.Errorf("bittorrent: FragmentSize must be positive, got %d", c.FragmentSize)
	case c.NumFragments() > math.MaxInt32:
		// A piece index, and a connection's fragment count, is an int32.
		return fmt.Errorf("bittorrent: FileBytes %d is %d fragments of %d bytes, more than the %d a swarm can index",
			c.FileBytes, c.NumFragments(), c.FragmentSize, math.MaxInt32)
	case c.MaxPeers < 1:
		return fmt.Errorf("bittorrent: MaxPeers must be at least 1, got %d", c.MaxPeers)
	case c.UploadSlots < 1:
		return fmt.Errorf("bittorrent: UploadSlots must be at least 1, got %d", c.UploadSlots)
	case c.BatchFragments < 1:
		return fmt.Errorf("bittorrent: BatchFragments must be at least 1, got %d", c.BatchFragments)
	case c.Root < 0 || c.Root >= numHosts:
		return fmt.Errorf("bittorrent: Root %d out of range [0,%d)", c.Root, numHosts)
	}
	return nil
}
