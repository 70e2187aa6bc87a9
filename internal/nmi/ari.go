package nmi

// The paper (§III-E) notes that several improved comparison measures
// yield consistent results with the LFK NMI it reports. The Adjusted Rand
// Index is the classic such cross-check: chance-corrected pair-counting
// agreement between two partitions, 1 for identical groupings and ~0 for
// independent ones (it can go slightly negative for anti-correlated
// partitions).

// ARI computes the Adjusted Rand Index between two partition label
// slices of equal length.
func ARI(a, b []int) float64 {
	if len(a) != len(b) {
		panic("nmi: label slices differ in length")
	}
	n := len(a)
	if n == 0 {
		panic("nmi: empty label slices")
	}
	ca := map[int]int{}
	cb := map[int]int{}
	joint := map[[2]int]int{}
	for i := range a {
		ca[a[i]]++
		cb[b[i]]++
		joint[[2]int{a[i], b[i]}]++
	}
	choose2 := func(k int) float64 { return float64(float64(k) * float64(k-1) / 2) }
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range ca {
		sumA += choose2(c)
	}
	for _, c := range cb {
		sumB += choose2(c)
	}
	total := choose2(n)
	if total == 0 {
		return 1 // a single node: trivially identical
	}
	expected := sumA * sumB / total
	maxIndex := float64((sumA + sumB) / 2)
	if maxIndex == expected {
		// Degenerate cases (e.g. both partitions all-singletons or
		// all-in-one): agreement is exact iff the groupings coincide.
		if sumJoint == maxIndex {
			return 1
		}
		return 0
	}
	return (sumJoint - expected) / (maxIndex - expected)
}
