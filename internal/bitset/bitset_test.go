package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newSet returns a set of bits 0..n-1, all clear, with its own storage.
func newSet(n int) *Set {
	s := Over(n, make([]uint64, Words(n)))
	return &s
}

func TestBasicSetGetClear(t *testing.T) {
	s := newSet(130) // spans three words
	if s.Count() != 0 || s.Len() != 130 {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if !s.Set(i) {
			t.Fatalf("Set(%d) reported no change on empty set", i)
		}
		if !s.Get(i) {
			t.Fatalf("Get(%d) false after Set", i)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	if s.Set(63) {
		t.Fatal("double Set reported a change")
	}
	if !s.Clear(63) {
		t.Fatal("Clear reported no change")
	}
	if s.Get(63) || s.Count() != 4 {
		t.Fatal("Clear did not clear")
	}
	if s.Clear(63) {
		t.Fatal("double Clear reported a change")
	}
}

func TestSetAllAndFull(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		s := newSet(n)
		s.SetAll()
		if !s.Full() || s.Count() != n {
			t.Fatalf("n=%d: SetAll gave Count=%d Full=%v", n, s.Count(), s.Full())
		}
		for i := 0; i < n; i++ {
			if !s.Get(i) {
				t.Fatalf("n=%d: bit %d clear after SetAll", n, i)
			}
		}
	}
}

func TestSetAllTailDoesNotOverflow(t *testing.T) {
	s := newSet(70)
	s.SetAll()
	if s.Count() != 70 {
		t.Fatalf("Count = %d, want 70", s.Count())
	}
	// Clearing a real bit must not be confused by phantom tail bits.
	s.Clear(69)
	if s.Count() != 69 || s.Full() {
		t.Fatal("tail handling broken")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSet(10).Get(10)
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Over(65, make([]uint64, 1)) // 65 bits need two words
}

// Property: Count always equals the number of Get-true bits.
func TestCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		a := newSet(n)
		ref := make(map[int]bool)
		for i := 0; i < 200; i++ {
			k := rng.Intn(n)
			if rng.Intn(2) == 0 {
				a.Set(k)
				ref[k] = true
			} else {
				a.Clear(k)
				delete(ref, k)
			}
		}
		if a.Count() != len(ref) {
			return false
		}
		for k := 0; k < n; k++ {
			if a.Get(k) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
