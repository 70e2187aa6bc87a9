package scenario

// The paper's six Grid'5000 datasets as declarative specs. Host names,
// host order, ground-truth labels and link parameters are pinned: the
// campaign content keys and the frozen digests in parity_test.go move if
// any of them does.

// builtinLinks declares the Grid'5000 link classes on a builder, with the
// numbers §IV-A of the paper reports. Capacities are application-level
// achievable rates in Mbit/s (protocol efficiency folded in; see
// simnet.LinkSpec):
//
//   - "eth" connects a compute node to its cluster switch: intra-cluster
//     1 GbE Ethernet delivers about 890 Mbit/s of application payload
//     (NetPIPE, Bordeaux).
//   - "uplink" connects a cluster switch to the site router (10 GbE).
//   - "bottleneck" is the single 1 GbE connection between the Dell and
//     Cisco switches through which the Bordeplage cluster reaches the
//     rest of Bordeaux — the bottleneck the tomography method must
//     discover.
//   - "fast" joins Bordereau and Borderline, which form one logical
//     cluster (no bottleneck).
//   - "wan" connects a site router to the Renater core, star-like with
//     Lyon central (Fig. 6). A single stream between sites reaches about
//     787 Mbit/s even though the optic-fibre backbone is 10 Gbit/s
//     aggregate, so the class carries a per-flow cap.
func builtinLinks(b *Builder) *Builder {
	return b.
		Link("eth", 890, 50e-6).
		Link("uplink", 10000, 50e-6).
		Link("bottleneck", 890, 50e-6).
		Link("fast", 10000, 50e-6).
		LinkPerFlow("wan", 10000, 4e-3, 787)
}

// backbone declares the Renater star (Fig. 6) with Lyon central: one
// router switch per site, each trunked to the core over the WAN class.
func backbone(b *Builder, sites ...string) *Builder {
	b.Switch("renater-lyon-core")
	for _, s := range sites {
		b.Switch("router-"+s).Trunk("router-"+s, "renater-lyon-core", "wan")
	}
	return b
}

// bordeauxSite declares the three Bordeaux clusters (Fig. 7): Bordeplage
// behind the Dell switch, Bordereau and Borderline behind fast switches
// off Cisco, and the single 1 GbE Dell-Cisco inter-switch bottleneck.
// Zero-count clusters are absent.
func bordeauxSite(b *Builder, router string, plage, reau, line int, clusterPlage, clusterReau string) *Builder {
	b.Switch("bordeaux-dell", "bordeaux-cisco").
		Trunk("bordeaux-dell", "bordeaux-cisco", "bottleneck").
		Trunk("bordeaux-cisco", router, "uplink")
	if reau > 0 {
		b.Switch("bordeaux-reau-sw").Trunk("bordeaux-reau-sw", "bordeaux-cisco", "fast")
	}
	if line > 0 {
		b.Switch("bordeaux-line-sw").Trunk("bordeaux-line-sw", "bordeaux-cisco", "fast")
	}
	if plage > 0 {
		b.Hosts("bordeplage", plage, "bordeaux-dell", "eth", clusterPlage)
	}
	if reau > 0 {
		b.Hosts("bordereau", reau, "bordeaux-reau-sw", "eth", clusterReau)
	}
	if line > 0 {
		b.Hosts("borderline", line, "bordeaux-line-sw", "eth", clusterReau)
	}
	return b
}

// specTwoByTwo is the §IV-B1 setting: 2 Bordeplage + 2 Borderline nodes.
func specTwoByTwo() *Spec {
	b := builtinLinks(NewBuilder("2x2")).
		Note("single logical cluster: the 1 GbE inter-switch link is not a bottleneck for two concurrent pairs").
		Switch("router-bordeaux")
	return bordeauxSite(b, "router-bordeaux", 2, 0, 2, "bordeaux", "bordeaux").MustSpec()
}

// specB is the Fig. 8 dataset: 64 Bordeaux nodes.
func specB() *Spec {
	b := builtinLinks(NewBuilder("B")).
		Note("two logical clusters: Bordeplage | Bordereau+Borderline (site-admin ground truth, Fig. 7)").
		Switch("router-bordeaux")
	return bordeauxSite(b, "router-bordeaux", 32, 27, 5, "bordeplage", "bordereau+borderline").MustSpec()
}

// specBT is the Fig. 9 dataset: 32 Bordeaux + 32 Toulouse nodes.
func specBT() *Spec {
	b := builtinLinks(NewBuilder("BT")).
		Note("three ground-truth partitions: Bordeplage | Bordereau+Borderline | Toulouse")
	backbone(b, "bordeaux", "toulouse")
	bordeauxSite(b, "router-bordeaux", 16, 12, 4, "bordeplage", "bordereau+borderline")
	return b.FlatSite("toulouse", "router-toulouse", 32, "eth", "uplink").MustSpec()
}

// specGT is the Fig. 10 dataset: 32 Grenoble + 32 Toulouse nodes.
func specGT() *Spec {
	b := builtinLinks(NewBuilder("GT")).
		Note("one cluster per site (both sites flat)")
	backbone(b, "grenoble", "toulouse")
	return b.
		FlatSite("grenoble", "router-grenoble", 32, "eth", "uplink").
		FlatSite("toulouse", "router-toulouse", 32, "eth", "uplink").
		MustSpec()
}

// specBGT is the Fig. 11 dataset: three sites of 32 nodes; the Bordeaux
// nodes avoid Bordeplage (§IV-D).
func specBGT() *Spec {
	b := builtinLinks(NewBuilder("BGT")).
		Note("one cluster per site (Bordeaux nodes avoid the intra-site bottleneck)")
	backbone(b, "bordeaux", "grenoble", "toulouse")
	bordeauxSite(b, "router-bordeaux", 0, 27, 5, "bordeplage", "bordeaux")
	return b.
		FlatSite("grenoble", "router-grenoble", 32, "eth", "uplink").
		FlatSite("toulouse", "router-toulouse", 32, "eth", "uplink").
		MustSpec()
}

// specBGTL is the Fig. 12 dataset: four sites of 16 nodes.
func specBGTL() *Spec {
	b := builtinLinks(NewBuilder("BGTL")).
		Note("one cluster per site")
	backbone(b, "bordeaux", "grenoble", "toulouse", "lyon")
	bordeauxSite(b, "router-bordeaux", 0, 13, 3, "bordeplage", "bordeaux")
	return b.
		FlatSite("grenoble", "router-grenoble", 16, "eth", "uplink").
		FlatSite("toulouse", "router-toulouse", 16, "eth", "uplink").
		FlatSite("lyon", "router-lyon", 16, "eth", "uplink").
		MustSpec()
}

// BuiltinSpecs returns fresh copies of the six paper datasets as specs,
// in the order the paper presents them (2x2, B, BT, GT, BGT, BGTL).
func BuiltinSpecs() []*Spec {
	return []*Spec{specTwoByTwo(), specB(), specBT(), specGT(), specBGT(), specBGTL()}
}
