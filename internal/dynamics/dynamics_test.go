package dynamics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// toyBinding covers a two-host, two-switch fabric: hosts h0 (vertex 2)
// and h1 (vertex 3) behind switches 0 and 1 joined by a trunk of class
// "wan".
func toyBinding() Binding {
	return Binding{
		Links: map[string][][2]int{
			"a|b": {{0, 1}},
			"b|a": {{0, 1}},
			"wan": {{0, 1}},
			"eth": {{2, 0}, {3, 1}},
		},
		Hosts:      map[string]int{"h0": 0, "h1": 1},
		HostVertex: []int{2, 3},
		Capacity:   map[[2]int]float64{{0, 1}: 1e9, {0, 2}: 1e8, {1, 3}: 1e8},
	}
}

func mustCompile(t *testing.T, events []Event, b Binding) *Timeline {
	t.Helper()
	tl, err := Compile(events, b)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestCompileEmpty(t *testing.T) {
	tl := mustCompile(t, nil, toyBinding())
	if tl.Len() != 0 {
		t.Fatalf("empty timeline: Len=%d", tl.Len())
	}
	if tl.ActiveHosts(1) != nil {
		t.Fatal("empty timeline restricted the host set")
	}
	var nilTL *Timeline
	if nilTL.Len() != 0 || nilTL.ActiveHosts(1) != nil {
		t.Fatal("nil timeline must behave as empty")
	}
}

func TestCompileSortsEvents(t *testing.T) {
	tl := mustCompile(t, []Event{
		{Iter: 3, Kind: LinkScale, Target: "wan", Param: 2},
		{Iter: 1, At: 5, Kind: Burst, Target: "h0>h1", Param: 1},
		{Iter: 1, Kind: LinkScale, Target: "wan", Param: 0.5},
	}, toyBinding())
	got := tl.events
	if got[0].Kind != LinkScale || got[0].Iter != 1 || got[1].Kind != Burst || got[2].Iter != 3 {
		t.Fatalf("events not sorted by (iter, at): %v", got)
	}
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   []Event
		want string
	}{
		{"iter zero", []Event{{Iter: 0, Kind: LinkScale, Target: "wan", Param: 2}}, "iter must be >= 1"},
		{"negative at", []Event{{Iter: 1, At: -1, Kind: LinkScale, Target: "wan", Param: 2}}, "negative at_s"},
		{"unknown kind", []Event{{Iter: 1, Kind: "explode", Target: "wan"}}, "unknown kind"},
		{"unknown link", []Event{{Iter: 1, Kind: LinkScale, Target: "dsl", Param: 2}}, "unknown link target"},
		{"bad factor", []Event{{Iter: 1, Kind: LinkScale, Target: "wan"}}, "positive factor"},
		{"infinite factor", []Event{{Iter: 1, Kind: LinkScale, Target: "wan", Param: math.Inf(1)}}, "finite positive factor"},
		{"NaN factor", []Event{{Iter: 1, Kind: LinkScale, Target: "wan", Param: math.NaN()}}, "finite positive factor"},
		{"capacity overflows", []Event{{Iter: 1, Kind: LinkScale, Target: "wan", Param: 1e300}}, "must stay finite and positive"},
		{"product overflows", []Event{
			{Iter: 2, Kind: LinkScale, Target: "a|b", Param: 1e200},
			{Iter: 1, Kind: LinkScale, Target: "wan", Param: 1e200},
		}, "iter 2 link-scale a|b param 1e+200: scales a link's capacity to +Inf"},
		{"product underflows", []Event{
			{Iter: 1, Kind: LinkScale, Target: "eth", Param: 1e-300},
			{Iter: 1, At: 2, Kind: LinkScale, Target: "eth", Param: 1e-300},
		}, "scales a link's capacity to 0"},
		{"churn with offset", []Event{{Iter: 1, At: 2, Kind: HostLeave, Target: "h0"}}, "at_s must be 0"},
		{"unknown host", []Event{{Iter: 1, Kind: HostLeave, Target: "h9"}}, "unknown host"},
		{"burst grammar", []Event{{Iter: 1, Kind: Burst, Target: "h0", Param: 1}}, "burst target"},
		{"burst unknown host", []Event{{Iter: 1, Kind: Burst, Target: "h0>h9", Param: 1}}, "unknown burst host"},
		{"burst self", []Event{{Iter: 1, Kind: Burst, Target: "h0>h0", Param: 1}}, "endpoints must differ"},
		{"burst size", []Event{{Iter: 1, Kind: Burst, Target: "h0>h1"}}, "positive megabyte"},
		{"up without down", []Event{{Iter: 1, Kind: LinkUp, Target: "wan"}}, "not down"},
		{"double down", []Event{
			{Iter: 1, Kind: LinkDown, Target: "wan"},
			{Iter: 2, Kind: LinkDown, Target: "a|b"},
		}, "already down"},
		{"join without leave", []Event{{Iter: 1, Kind: HostJoin, Target: "h0"}}, "not absent"},
		{"swarm too small", []Event{{Iter: 1, Kind: HostLeave, Target: "h1"}}, "fewer than 2 hosts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.ev, toyBinding())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want it to mention %q", err, c.want)
			}
		})
	}
	// Double-leave needs a swarm big enough that the first leave is
	// legal on its own.
	big := Binding{
		Links:      map[string][][2]int{},
		Hosts:      map[string]int{"h0": 0, "h1": 1, "h2": 2, "h3": 3},
		HostVertex: []int{10, 11, 12, 13},
	}
	_, err := Compile([]Event{
		{Iter: 1, Kind: HostLeave, Target: "h0"},
		{Iter: 2, Kind: HostLeave, Target: "h0"},
	}, big)
	if err == nil || !strings.Contains(err.Error(), "already left") {
		t.Fatalf("double leave: error = %v, want it to mention %q", err, "already left")
	}
}

// With an iteration budget in the binding, events beyond it are scenario
// bugs — they would validate and then silently never fire — and must be
// rejected with an error naming the offending event. Events at the budget
// itself fire during the final iteration and stay legal.
func TestCompileRejectsEventsBeyondIterationBudget(t *testing.T) {
	b := toyBinding()
	b.Iterations = 5
	if _, err := Compile([]Event{
		{Iter: 2, Kind: LinkScale, Target: "wan", Param: 2},
		{Iter: 6, Kind: HostLeave, Target: "h0"},
	}, b); err == nil {
		t.Fatal("event beyond the iteration budget accepted")
	} else {
		for _, want := range []string{"iter 6", "host-leave h0", "5 iterations", "never fire"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
	}
	mustCompile(t, []Event{
		{Iter: 5, Kind: LinkScale, Target: "wan", Param: 2},
	}, b)
	// Without a budget the same late event compiles: the spec-level pass
	// cannot know the run's iteration count.
	mustCompile(t, []Event{
		{Iter: 6, Kind: LinkScale, Target: "wan", Param: 2},
	}, toyBinding())
}

func TestActiveHostsReplay(t *testing.T) {
	b := Binding{
		Links:      map[string][][2]int{},
		Hosts:      map[string]int{"h0": 0, "h1": 1, "h2": 2, "h3": 3},
		HostVertex: []int{10, 11, 12, 13},
	}
	tl := mustCompile(t, []Event{
		{Iter: 2, Kind: HostLeave, Target: "h1"},
		{Iter: 3, Kind: HostLeave, Target: "h3"},
		{Iter: 5, Kind: HostJoin, Target: "h1"},
	}, b)
	want := map[int][]int{
		1: nil,       // nobody has left yet
		2: {0, 2, 3}, // h1 away
		3: {0, 2},    // h1 and h3 away
		4: {0, 2},    // unchanged between events
		5: {0, 1, 2}, // h1 rejoined, h3 still away
		6: {0, 1, 2}, // steady state after the last event
	}
	for it, w := range want {
		got := tl.ActiveHosts(it)
		if len(got) != len(w) {
			t.Fatalf("iteration %d: active = %v, want %v", it, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("iteration %d: active = %v, want %v", it, got, w)
			}
		}
	}
}

// applyNet builds h0 - s0 - s1 - h1 with a 100 B/s trunk and returns the
// pieces plus a binding matching toyBinding's ids (s0=0, s1=1, h0=2,
// h1=3).
func applyNet() (*sim.Engine, *simnet.Network, [4]int) {
	eng := sim.NewEngine()
	net := simnet.New(eng)
	s0 := net.AddSwitch("a")
	s1 := net.AddSwitch("b")
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect(s0, s1, simnet.LinkSpec{Capacity: 100})
	net.Connect(h0, s0, simnet.LinkSpec{Capacity: 1000})
	net.Connect(h1, s1, simnet.LinkSpec{Capacity: 1000})
	return eng, net, [4]int{s0, s1, h0, h1}
}

func TestApplyPersistentVersusScheduled(t *testing.T) {
	tl := mustCompile(t, []Event{
		{Iter: 1, Kind: LinkScale, Target: "wan", Param: 0.5},
		{Iter: 2, At: 4, Kind: LinkScale, Target: "wan", Param: 0.5},
	}, toyBinding())

	// Iteration 2's replica: iteration 1's halving applies immediately,
	// iteration 2's own event is scheduled at t=4.
	eng, net, v := applyNet()
	tl.Apply(2, eng, net)
	if got := net.LinkCapacity(v[0], v[1]); got != 50 {
		t.Fatalf("capacity after setup = %g, want 50 (iteration 1's event)", got)
	}
	eng.Run()
	if got := net.LinkCapacity(v[0], v[1]); got != 25 {
		t.Fatalf("capacity after engine run = %g, want 25 (iteration 2's event fired)", got)
	}

	// Iteration 3's replica: both events are pre-applied, nothing is
	// scheduled.
	eng, net, v = applyNet()
	tl.Apply(3, eng, net)
	if got := net.LinkCapacity(v[0], v[1]); got != 25 {
		t.Fatalf("iteration 3 setup capacity = %g, want 25", got)
	}
}

func TestApplyBurstOnlyInItsIteration(t *testing.T) {
	tl := mustCompile(t, []Event{
		{Iter: 2, At: 0, Kind: Burst, Target: "h0>h1", Param: 1e-4}, // 100 bytes
	}, toyBinding())

	// In its own iteration the 100-byte burst crosses the 100 B/s trunk
	// alone: it ends one path latency plus 100 B over the bottleneck in.
	eng, net, v := applyNet()
	tl.Apply(2, eng, net)
	p := net.Path(v[2], v[3])
	want := p.Latency + 100/p.Capacity
	if end := eng.Run(); math.Abs(end-want) > 1e-6 {
		t.Fatalf("burst ended at t=%g, want %g (100 B over %g B/s)", end, want, p.Capacity)
	}

	eng, net, _ = applyNet()
	tl.Apply(3, eng, net)
	if end := eng.Run(); end != 0 || net.Solves() != 0 {
		t.Fatalf("burst replayed outside its iteration: ran to t=%g with %d solves", end, net.Solves())
	}
}

func TestApplyLinkDownUpCycle(t *testing.T) {
	tl := mustCompile(t, []Event{
		{Iter: 1, At: 1, Kind: LinkDown, Target: "a|b"},
		{Iter: 1, At: 3, Kind: LinkUp, Target: "a|b"},
	}, toyBinding())

	// In iteration 1 the trunk fails at t=1 and recovers at t=3: a
	// 200-byte flow at 100 B/s stalls for the 2-second outage.
	eng, net, v := applyNet()
	tl.Apply(1, eng, net)
	var done float64
	net.StartFlow(v[2], v[3], 200, func() { done = eng.Now() })
	eng.Run()
	if math.Abs(done-4) > 1e-6 {
		t.Fatalf("flow finished at %g, want 4 (1s up + 2s outage + 1s up)", done)
	}

	// In iteration 2 both events pre-apply: the trunk is up.
	eng, net, v = applyNet()
	tl.Apply(2, eng, net)
	if !net.LinkUp(v[0], v[1]) {
		t.Fatal("down/up cycle left the trunk down for later iterations")
	}
}
