package scenario

import (
	"fmt"
	"math/rand"
)

// Generators for parameterised synthetic scenario families. Each returns
// a validated Spec, so a family member can be compiled directly, saved
// as JSON, registered, or swept by the experiment harness — scenarios
// beyond the paper's six datasets become one function call. Generators
// panic on nonsensical shape parameters; bandwidth/latency values are
// validated by the spec.

// NSites generates a k-site star: hostsPerSite hosts per flat site,
// intraMbps host links, interMbps site uplinks into a central core
// switch. The ground truth is one cluster per site — recoverable
// whenever interMbps is materially below the aggregate intra-site
// bandwidth, the regime the paper's multi-site datasets (GT, BGT, BGTL)
// live in.
func NSites(sites, hostsPerSite int, intraMbps, interMbps float64) *Spec {
	if sites < 1 || hostsPerSite < 1 {
		panic("scenario: NSites needs at least one site and one host per site")
	}
	b := NewBuilder(fmt.Sprintf("nsites-%dx%d", sites, hostsPerSite)).
		Note("one ground-truth cluster per site (generated NSites family)").
		Link("intra", intraMbps, 50e-6).
		Link("inter", interMbps, 4e-3).
		Switch("core")
	for i := 0; i < sites; i++ {
		b.FlatSite(fmt.Sprintf("site%d", i), "core", hostsPerSite, "intra", "inter")
	}
	return b.MustSpec()
}

// FatTree generates a three-level hierarchical fabric: a root switch,
// pods pod switches beneath it (spineMbps trunks), leavesPerPod leaf
// switches per pod (leafMbps trunks) and hostsPerLeaf hosts per leaf
// (hostMbps links). The ground truth is one cluster per pod: the spine
// trunks are the declared bottlenecks, so choose spineMbps below
// leafMbps for the truth to be physically meaningful — the multi-level
// structure below it is what the hierarchy extension (§V) can recover.
func FatTree(pods, leavesPerPod, hostsPerLeaf int, hostMbps, leafMbps, spineMbps float64) *Spec {
	if pods < 1 || leavesPerPod < 1 || hostsPerLeaf < 1 {
		panic("scenario: FatTree needs at least one pod, leaf and host")
	}
	b := NewBuilder(fmt.Sprintf("fattree-%dx%dx%d", pods, leavesPerPod, hostsPerLeaf)).
		Note("one ground-truth cluster per pod; spine trunks are the bottlenecks (generated FatTree family)").
		Link("host", hostMbps, 50e-6).
		Link("leaf", leafMbps, 50e-6).
		Link("spine", spineMbps, 200e-6).
		Switch("root")
	for p := 0; p < pods; p++ {
		pod := fmt.Sprintf("pod%d", p)
		b.Switch(pod).Trunk(pod, "root", "spine")
		for l := 0; l < leavesPerPod; l++ {
			leaf := fmt.Sprintf("%s-leaf%d", pod, l)
			b.Switch(leaf).Trunk(leaf, pod, "leaf")
			b.Hosts(fmt.Sprintf("p%dl%d", p, l), hostsPerLeaf, leaf, "host", pod)
		}
	}
	return b.MustSpec()
}

// SkewedSites generates a star of sites with heterogeneous uplink
// bandwidth: site i's uplink runs at interMbps * decay^i, with decay in
// (0, 1]. It stresses the method's §I claim of working on heterogeneous
// networks, where the inter-site contrast differs per site instead of
// being uniform like the paper's Renater star. Ground truth is one
// cluster per site.
func SkewedSites(sites, hostsPerSite int, intraMbps, interMbps, decay float64) *Spec {
	if sites < 1 || hostsPerSite < 1 {
		panic("scenario: SkewedSites needs at least one site and one host per site")
	}
	if decay <= 0 || decay > 1 {
		panic("scenario: SkewedSites needs decay in (0, 1]")
	}
	b := NewBuilder(fmt.Sprintf("skewed-%dx%d", sites, hostsPerSite)).
		Note("one ground-truth cluster per site; uplink bandwidth decays geometrically across sites (generated SkewedSites family)").
		Link("intra", intraMbps, 50e-6).
		Switch("core")
	uplink := interMbps
	for i := 0; i < sites; i++ {
		link := fmt.Sprintf("uplink%d", i)
		b.Link(link, uplink, 4e-3)
		b.FlatSite(fmt.Sprintf("site%d", i), "core", hostsPerSite, "intra", link)
		uplink *= decay
	}
	return b.MustSpec()
}

// siteNames returns site0..site(n-1).
func siteNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	return names
}

// BordeauxScaled generates a Bordeaux-only scenario (Fig. 7) with custom
// cluster sizes, used by the cost-comparison experiments at reduced node
// counts. The ground truth is Bordeplage | Bordereau+Borderline whenever
// both sides of the Dell-Cisco bottleneck are populated.
func BordeauxScaled(plage, reau, line int) *Spec {
	b := builtinLinks(NewBuilder(fmt.Sprintf("B-%d-%d-%d", plage, reau, line))).
		Note("two logical clusters split at the Dell-Cisco 1 GbE link").
		Switch("router-bordeaux")
	return bordeauxSite(b, "router-bordeaux", plage, reau, line, "bordeplage", "bordereau+borderline").MustSpec()
}

// FlatSites generates a multi-site scenario on the Renater star with the
// given number of flat Grid'5000 sites and nodes per site; used by the
// scaling experiments (§II-B uses 32, 64 and 128 nodes across up to 4
// sites). A single site needs no backbone.
func FlatSites(sites, nodesPerSite int) *Spec {
	if sites < 1 || nodesPerSite < 1 {
		panic("scenario: FlatSites needs at least one site and one node")
	}
	b := builtinLinks(NewBuilder(fmt.Sprintf("flat-%dx%d", sites, nodesPerSite))).
		Note("one cluster per site")
	names := siteNames(sites)
	if sites == 1 {
		b.Switch("router-site0")
	} else {
		backbone(b, names...)
	}
	for _, s := range names {
		b.FlatSite(s, "router-"+s, nodesPerSite, "eth", "uplink")
	}
	return b.MustSpec()
}

// RandomSites generates a randomized heterogeneous multi-site scenario
// for stress-testing the pipeline beyond the paper's fixed settings:
// sites (>= 2) flat sites on the Renater star, each with a node count
// drawn uniformly from [minNodes, maxNodes] by seed. The first
// bottlenecks sites (those that drew at least 4 nodes) are split like
// Bordeaux: half their nodes behind an internal 1 GbE inter-switch link,
// forming their own ground-truth cluster.
func RandomSites(sites, minNodes, maxNodes, bottlenecks int, seed int64) *Spec {
	if sites < 2 {
		panic("scenario: RandomSites needs at least 2 sites")
	}
	if minNodes < 2 || maxNodes < minNodes {
		panic("scenario: RandomSites needs 2 <= minNodes <= maxNodes")
	}
	rng := rand.New(rand.NewSource(seed))
	b := builtinLinks(NewBuilder(fmt.Sprintf("random-%d", seed))).
		Note("one cluster per site; bottlenecked sites split in two")
	names := siteNames(sites)
	backbone(b, names...)
	for i, name := range names {
		n := minNodes + rng.Intn(maxNodes-minNodes+1)
		if i >= bottlenecks || n < 4 {
			b.FlatSite(name, "router-"+name, n, "eth", "uplink")
			continue
		}
		near, far := name+"-near", name+"-far"
		b.Switch(near+"-sw", far+"-sw").
			Trunk(near+"-sw", "router-"+name, "uplink").
			Trunk(near+"-sw", far+"-sw", "bottleneck").
			Hosts(near, n/2, near+"-sw", "eth", near).
			Hosts(far, n-n/2, far+"-sw", "eth", far)
	}
	return b.MustSpec()
}
