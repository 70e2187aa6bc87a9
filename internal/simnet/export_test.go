package simnet

// SkipUnderRace lets the external tests of this directory skip their
// allocation budgets the way the internal ones do.
var SkipUnderRace = skipUnderRace

// FlowsSolved reads the number of flows the network's solves started
// from, counted since it was built, cloned or reset.
func FlowsSolved(n *Network) uint64 { return n.flowsSolved }
