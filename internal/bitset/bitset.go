// Package bitset provides a compact fixed-size bit set for BitTorrent piece
// bookkeeping: the have and in-flight maps of the simulated swarm
// (internal/bittorrent, ~15k fragments) and of the wire client
// (internal/wire), which also keeps each remote's have map in one.
package bitset

// Set is a fixed-capacity bit set. The zero value is unusable; call Over.
type Set struct {
	words []uint64
	n     int
	count int
}

// Words returns the number of uint64 words a set of n bits occupies.
func Words(n int) int { return (n + 63) / 64 }

// Over returns a set of bits 0..n-1, all clear, stored in words, which must
// be zeroed and Words(n) long. A caller that needs many sets carves them
// from one allocation this way.
func Over(n int, words []uint64) Set {
	if n < 0 || len(words) != Words(n) {
		panic("bitset: negative size, or storage that does not match it")
	}
	return Set{words: words, n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Set) Count() int { return s.count }

// Full reports whether every bit is set.
func (s *Set) Full() bool { return s.count == s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i, reporting whether it changed.
func (s *Set) Set(i int) bool {
	s.check(i)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	s.count++
	return true
}

// Clear clears bit i, reporting whether it changed.
func (s *Set) Clear(i int) bool {
	s.check(i)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	s.count--
	return true
}

// SetAll sets every bit.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := s.n & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(tail)) - 1
	}
	s.count = s.n
}
