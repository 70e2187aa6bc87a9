package nmi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdenticalPartitionsScoreOne(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2, 2}
	if got := LFKPartition(labels, labels); math.Abs(got-1) > 1e-12 {
		t.Fatalf("LFK identical = %g, want 1", got)
	}
}

func TestLabelPermutationInvariant(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 1, 1}
	if got := LFKPartition(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("LFK permuted labels = %g, want 1", got)
	}
}

func TestIndependentPartitionsScoreLow(t *testing.T) {
	// Two orthogonal splits of 64 nodes: rows vs columns of an 8x8 grid.
	a := make([]int, 64)
	b := make([]int, 64)
	for i := range a {
		a[i] = i / 8
		b[i] = i % 8
	}
	if got := LFKPartition(a, b); got > 0.2 {
		t.Fatalf("LFK orthogonal = %g, want near 0", got)
	}
}

func TestSymmetry(t *testing.T) {
	a := []int{0, 0, 0, 1, 1, 2, 2, 2, 2}
	b := []int{0, 1, 0, 1, 1, 2, 2, 0, 2}
	if p, q := LFKPartition(a, b), LFKPartition(b, a); math.Abs(p-q) > 1e-12 {
		t.Fatalf("LFK not symmetric: %g vs %g", p, q)
	}
}

func TestMergedClustersIntermediate(t *testing.T) {
	// Truth has 3 clusters; the candidate merges two of them. LFK should
	// land strictly between 0 and 1.
	truth := make([]int, 64)
	found := make([]int, 64)
	for i := range truth {
		switch {
		case i < 16:
			truth[i] = 0
			found[i] = 0
		case i < 32:
			truth[i] = 1
			found[i] = 0
		default:
			truth[i] = 2
			found[i] = 1
		}
	}
	lfk := LFKPartition(truth, found)
	if lfk <= 0.3 || lfk >= 0.95 {
		t.Fatalf("LFK merged = %g, want intermediate", lfk)
	}
	// This is the paper's BT scenario (§IV-C): a two-cluster answer
	// against a three-partition hierarchical truth scores around 0.6-0.7
	// by the LFK measure — the paper reports "approximately 0.7".
	if lfk < 0.55 || lfk > 0.8 {
		t.Fatalf("LFK merged = %g, want in [0.55, 0.8] (paper's ~0.7)", lfk)
	}
}

func TestKnownPartitionNMIValue(t *testing.T) {
	// Hand-computable case: n=4, a={01|23}, b={0|123}. With h(1/4)=0.5
	// and h(3/4)=0.311278 bits, H({0})=H({123})=0.811278 and
	// H({01})=H({23})=1. Each community of a has one admissible match in
	// b ({01}→{0}, {23}→{123}) with joint entropy 1.5, so
	// H(X|Y)_norm = (1.5-0.811278)/1 = 0.688722; each community of b has
	// one admissible match in a with H = 1.5-1, so
	// H(Y|X)_norm = 0.5/0.811278 = 0.616311.
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 1, 1}
	want := 1 - (0.688722+0.616311)/2
	if got := LFKPartition(a, b); math.Abs(got-want) > 1e-5 {
		t.Fatalf("LFKPartition = %g, want %g", got, want)
	}
}

func TestLFKOverlappingCover(t *testing.T) {
	// Covers may overlap: node 2 belongs to both communities. Against
	// itself the score is 1.
	x := Cover{{0, 1, 2}, {2, 3, 4}}
	if got := LFK(x, x, 5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("LFK overlapping self = %g, want 1", got)
	}
	// Against the disjoint version the score drops below 1.
	y := Cover{{0, 1, 2}, {3, 4}}
	if got := LFK(x, y, 5); got >= 1 {
		t.Fatalf("LFK overlap vs disjoint = %g, want < 1", got)
	}
}

func TestLFKAdmissibilityConstraint(t *testing.T) {
	// A community must not match its complement. With x = {0,1} and
	// y = {2,3} over 4 nodes, the pair is inadmissible both ways, so the
	// conditional entropies fall back to the marginals and NMI is 0.
	x := Cover{{0, 1}}
	y := Cover{{2, 3}}
	if got := LFK(x, y, 4); got > 1e-12 {
		t.Fatalf("LFK complement = %g, want 0", got)
	}
}

func TestSingleClusterBothSides(t *testing.T) {
	a := []int{0, 0, 0, 0}
	if got := LFKPartition(a, a); got != 1 {
		t.Fatalf("trivial partitions NMI = %g, want 1", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LFKPartition([]int{0, 1}, []int{0})
}

func TestNodeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LFK(Cover{{0, 7}}, Cover{{0}}, 4)
}

// Property: LFK stays in [0,1], is symmetric, and scores 1 for a
// partition against itself.
func TestRangeAndSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		ka := rng.Intn(5) + 1
		kb := rng.Intn(5) + 1
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(ka)
			b[i] = rng.Intn(kb)
		}
		l1, l2 := LFKPartition(a, b), LFKPartition(b, a)
		if math.Abs(l1-l2) > 1e-9 || l1 < -1e-9 || l1 > 1+1e-9 {
			return false
		}
		return math.Abs(LFKPartition(a, a)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: refining one cluster of a partition scores higher against the
// original than an unrelated random partition does.
func TestRefinementBeatsRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 12
		truth := make([]int, n)
		for i := range truth {
			truth[i] = i % 3
		}
		refined := make([]int, n)
		copy(refined, truth)
		for i := range refined {
			if refined[i] == 0 && i%2 == 0 {
				refined[i] = 3 // split cluster 0 in two
			}
		}
		random := make([]int, n)
		for i := range random {
			random[i] = rng.Intn(4)
		}
		return LFKPartition(truth, refined) >= LFKPartition(truth, random)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestARIIdenticalAndPermuted(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{7, 7, 3, 3, 5, 5}
	if got := ARI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI identical = %g, want 1", got)
	}
	if got := ARI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI permuted = %g, want 1", got)
	}
}

func TestARIOrthogonalNearZero(t *testing.T) {
	a := make([]int, 64)
	b := make([]int, 64)
	for i := range a {
		a[i] = i / 8
		b[i] = i % 8
	}
	// A deterministic orthogonal grid is slightly anti-correlated
	// relative to chance (every joint cell holds exactly one node), so
	// the exact value is -1/8; the point is that it is far from 1.
	if got := ARI(a, b); math.Abs(got-(-0.125)) > 1e-12 {
		t.Fatalf("ARI orthogonal = %g, want -0.125", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Hand-checkable: n=6, truth {012|345}, found {01|2345}.
	// Contingency: (0,0)=2 (0,1)=1 (1,1)=3.
	// sumJoint = 1+0+3 = 4; sumA = 3+3 = 6; sumB = 1+6 = 7; total = 15.
	// expected = 42/15 = 2.8; maxIdx = 6.5; ARI = (4-2.8)/(6.5-2.8).
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 1, 1}
	want := (4.0 - 2.8) / (6.5 - 2.8)
	if got := ARI(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ARI = %g, want %g", got, want)
	}
}

func TestARIDegenerateCases(t *testing.T) {
	one := []int{0, 0, 0}
	single := []int{0, 1, 2}
	if got := ARI(one, one); got != 1 {
		t.Fatalf("ARI(all-one, all-one) = %g, want 1", got)
	}
	if got := ARI(single, single); got != 1 {
		t.Fatalf("ARI(singletons, singletons) = %g, want 1", got)
	}
	if got := ARI(one, single); got != 0 {
		t.Fatalf("ARI(all-one, singletons) = %g, want 0", got)
	}
}

// Property: ARI is symmetric, 1 on self, and agrees in sign/ordering with
// partition NMI on random pairs (both high for equal, both lower for
// perturbed).
func TestARIConsistentWithNMIProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 10
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
		}
		perturbed := append([]int(nil), a...)
		for k := 0; k < n/4; k++ {
			perturbed[rng.Intn(n)] = rng.Intn(4)
		}
		if math.Abs(ARI(a, perturbed)-ARI(perturbed, a)) > 1e-12 {
			return false
		}
		if math.Abs(ARI(a, a)-1) > 1e-12 {
			return false
		}
		// Perturbation cannot beat self-agreement.
		return ARI(a, perturbed) <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
