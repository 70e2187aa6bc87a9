package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with named sub-streams. Every
// stochastic component in the simulator draws from a stream derived from a
// root seed plus a label, so adding a new consumer of randomness never
// perturbs the draws seen by existing consumers.
type RNG struct {
	seed int64
}

// NewRNG returns a root generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Streamf returns an independent *rand.Rand for the given label and
// number — one stream per iteration or per node. Calling it twice with the
// same label and number yields generators that produce the same sequence.
func (r *RNG) Streamf(label string, n int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	var buf [8]byte
	v := uint64(n)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	mixed := int64(h.Sum64() ^ (uint64(r.seed) * 0x9E3779B97F4A7C15))
	return rand.New(rand.NewSource(mixed))
}
