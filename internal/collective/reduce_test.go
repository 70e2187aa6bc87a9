package collective

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReverseFlipsSchedule(t *testing.T) {
	s := Schedule{
		{{Src: 0, Dst: 1}},
		{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}},
	}
	r := Reverse(s)
	if r.Stages() != 2 || r.Transfers() != 3 {
		t.Fatalf("reverse shape wrong: %v", r)
	}
	if r[0][0] != (Transfer{Src: 2, Dst: 0}) && r[0][0] != (Transfer{Src: 3, Dst: 1}) {
		t.Fatalf("first reversed stage = %v", r[0])
	}
	if r[1][0] != (Transfer{Src: 1, Dst: 0}) {
		t.Fatalf("last reversed stage = %v", r[1])
	}
}

func TestReduceBinomialIsValidReduction(t *testing.T) {
	order := []int{4, 0, 1, 2, 3, 5, 6}
	sched, err := ReduceBinomial(order)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyReduce(sched, 7, 4); err != nil {
		t.Fatal(err)
	}
}

func TestReduceClusterAwareIsValidReduction(t *testing.T) {
	clusters := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	sched, err := ReduceClusterAware(clusters, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyReduce(sched, 9, 2); err != nil {
		t.Fatal(err)
	}
	// Each remote cluster's contribution crosses exactly once: the final
	// stage carries the representative partials to the root.
	last := sched[len(sched)-1]
	if len(last) != 2 {
		t.Fatalf("final stage has %d transfers, want 2 (one per remote cluster)", len(last))
	}
	for _, tr := range last {
		if tr.Dst != 2 {
			t.Fatalf("final-stage transfer %v does not target the root", tr)
		}
	}
}

func TestVerifyReduceCatchesBadSchedules(t *testing.T) {
	// Host 1 sends twice.
	bad := Schedule{
		{{Src: 1, Dst: 0}},
		{{Src: 1, Dst: 0}},
	}
	if err := verifyReduce(bad, 3, 0); err == nil {
		t.Fatal("double contribution accepted")
	}
	// Host 2 never contributes.
	bad = Schedule{{{Src: 1, Dst: 0}}}
	if err := verifyReduce(bad, 3, 0); err == nil {
		t.Fatal("missing contribution accepted")
	}
	// Reducing into a host that already sent away.
	bad = Schedule{
		{{Src: 1, Dst: 0}},
		{{Src: 2, Dst: 1}},
	}
	if err := verifyReduce(bad, 3, 0); err == nil {
		t.Fatal("reduction into retired host accepted")
	}
}

func TestExecuteReduceOnBottleneck(t *testing.T) {
	d := bordeaux(t, 8, 8)
	clusters := [][]int{{}, {}}
	for i := 0; i < 16; i++ {
		clusters[d.GroundTruth[i]] = append(clusters[d.GroundTruth[i]], i)
	}
	aware, err := ReduceClusterAware(clusters, 0)
	if err != nil {
		t.Fatal(err)
	}
	resAware, err := ExecuteReduce(d.Eng, d.Net, d.Hosts, aware, 0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	order := []int{0}
	for _, v := range rng.Perm(16) {
		if v != 0 {
			order = append(order, v)
		}
	}
	agnostic, err := ReduceBinomial(order)
	if err != nil {
		t.Fatal(err)
	}
	resAgn, err := ExecuteReduce(d.Eng, d.Net, d.Hosts, agnostic, 0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resAware.Duration >= resAgn.Duration {
		t.Fatalf("aware reduce %.3fs not faster than agnostic %.3fs",
			resAware.Duration, resAgn.Duration)
	}
}

// Property: reversing any valid broadcast yields a valid reduction to the
// same root.
func TestBroadcastReduceDualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		order := rng.Perm(n)
		b, err := BroadcastBinomial(order)
		if err != nil {
			return false
		}
		if verifyBroadcast(b, n, order[0]) != nil {
			return false
		}
		return verifyReduce(Reverse(b), n, order[0]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
