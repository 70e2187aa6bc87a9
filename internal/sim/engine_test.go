package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %g, want 3", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-7, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.stopped {
		t.Fatal("cancelled event not marked stopped")
	}
	// Double cancel is a no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(float64(i), func() { got = append(got, i) }))
	}
	e.Cancel(evs[5])
	e.Cancel(evs[13])
	e.Run()
	for _, v := range got {
		if v == 5 || v == 13 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 18 {
		t.Fatalf("fired %d events, want 18", len(got))
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var got []float64
	e.Schedule(1, func() {
		got = append(got, e.Now())
		e.Schedule(2, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %g, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("fired %d events total, want 5", len(got))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %g, want 42", e.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.Schedule(2, func() {
		e.ScheduleAt(7, func() { at = e.Now() })
		e.ScheduleAt(1, func() {}) // past: clamped to now
	})
	e.Run()
	if at != 7 {
		t.Fatalf("ScheduleAt fired at %g, want 7", at)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestNilFuncPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"Schedule": func(e *Engine) { e.Schedule(1, nil) },
		"Post":     func(e *Engine) { e.Post(1, nil) },
		"NewTimer": func(e *Engine) { e.Reschedule(e.NewTimer(nil), 1) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "sim: event scheduled with nil function" {
					t.Errorf("%s of a nil function: recovered %v, want the nil-function panic", name, r)
				}
			}()
			schedule(NewEngine())
		}()
	}
}

// TestCancelFiredEventAfterReuseIsNoOp: Cancel documents that a handle to
// an event that already fired is a no-op, and it must stay one however many
// Post events the engine has recycled since — an engine that put the fired
// Schedule event on its free list would, here, stop one of the queued events
// that now occupies it.
func TestCancelFiredEventAfterReuseIsNoOp(t *testing.T) {
	run := func(cancelStale bool) (order []int, fired uint64) {
		e := NewEngine()
		stale := e.Schedule(1, func() { order = append(order, -1) })
		e.Run()
		// 10k events through the pool, 100 at a time; the last round is
		// larger than any before it, so every recycled event is queued
		// when the stale handle is cancelled.
		id := 0
		post := func(n int) {
			for i := 0; i < n; i++ {
				k := id
				id++
				e.Post(float64(k%7), Func(func() { order = append(order, k) }))
			}
		}
		for round := 0; round < 100; round++ {
			post(100)
			e.Run()
		}
		post(150)
		if cancelStale {
			e.Cancel(stale)
		}
		if e.Pending() != 150 {
			t.Fatalf("cancelStale=%v: %d events queued, want 150", cancelStale, e.Pending())
		}
		e.Run()
		return order, e.Fired()
	}
	wantOrder, wantFired := run(false)
	gotOrder, gotFired := run(true)
	if gotFired != wantFired || wantFired != 1+10000+150 {
		t.Fatalf("Fired() = %d after cancelling a stale handle, %d without, want %d", gotFired, wantFired, 1+10000+150)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("event %d fired %d-th without the stale Cancel, event %d with it", wantOrder[i], i, gotOrder[i])
		}
	}
}

// TestPostOrdersLikeSchedule: Post, Schedule and Reschedule draw from one
// sequence, so same-instant events fire in call order whichever was used,
// and a timer re-armed while queued fires once, at its new place.
func TestPostOrdersLikeSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	timer := e.NewTimer(Func(func() { order = append(order, 9) }))
	e.Reschedule(timer, 1)
	e.Post(1, Func(func() { order = append(order, 0) }))
	e.Schedule(1, func() { order = append(order, 1) })
	e.Reschedule(timer, 1) // moves behind the two above
	e.Post(1, Func(func() { order = append(order, 2) }))
	e.Run()
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 9 || order[3] != 2 {
		t.Fatalf("fired in order %v, want [0 1 9 2]", order)
	}
	e.Reschedule(timer, 1)
	e.Cancel(timer)
	e.Reschedule(timer, 2)
	e.Run()
	if len(order) != 5 || e.Now() != 3 {
		t.Fatalf("a cancelled and re-armed timer fired %d times by t=%g, want once more at t=3", len(order)-4, e.Now())
	}
}

// TestResetIsANewEngine: Reset drops what is queued without running it,
// zeroes clock and counters, leaves handles cancelled and timers usable.
func TestResetIsANewEngine(t *testing.T) {
	e := NewEngine()
	ran := 0
	count := func() { ran++ }
	timer := e.NewTimer(Func(count))
	e.Schedule(1, count)
	e.Run()
	held := e.Schedule(5, count)
	e.Post(5, Func(count))
	e.Reschedule(timer, 5)
	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 || !held.stopped {
		t.Fatalf("after Reset: now %g, fired %d, pending %d, held handle stopped %v",
			e.Now(), e.Fired(), e.Pending(), held.stopped)
	}
	e.Cancel(held)
	e.Cancel(timer)
	if e.Run() != 0 || ran != 1 {
		t.Fatalf("dropped events ran: %d callbacks by t=%g", ran, e.Now())
	}
	first := -1
	e.Post(2, Func(func() { first = 0 }))
	e.Reschedule(timer, 2)
	e.Run()
	if first != 0 || ran != 2 || e.Now() != 2 || e.Fired() != 2 {
		t.Fatalf("reset engine: post ran %v, %d callbacks, now %g, fired %d", first == 0, ran, e.Now(), e.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []float64
		for _, r := range raw {
			d := float64(r) / 16.0
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return e.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// all others exactly once.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		count := int(n%64) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		fired := make([]int, count)
		evs := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			evs[i] = e.Schedule(rng.Float64()*100, func() { fired[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < count/2; i++ {
			k := rng.Intn(count)
			cancelled[k] = true
			e.Cancel(evs[k])
		}
		e.Run()
		for i := 0; i < count; i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Streamf("bittorrent/choke", 0)
	b := NewRNG(42).Streamf("bittorrent/choke", 0)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+label produced different streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	r := NewRNG(42)
	a := r.Streamf("alpha", 0)
	b := r.Streamf("beta", 0)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different labels look correlated: %d/64 equal draws", same)
	}
}

func TestRNGStreamfDistinct(t *testing.T) {
	r := NewRNG(7)
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		v := r.Streamf("iter", i).Int63()
		if seen[v] {
			t.Fatalf("Streamf collision at iteration %d", i)
		}
		seen[v] = true
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1).Streamf("x", 0).Int63()
	b := NewRNG(2).Streamf("x", 0).Int63()
	if a == b {
		t.Fatal("different seeds produced identical first draw")
	}
}
