package simnet

// SkipUnderRace lets the external tests of this directory skip their
// allocation budgets the way the internal ones do.
var SkipUnderRace = skipUnderRace
