package bittorrent

import "repro/internal/sim"

// HoldsStorage reports whether b kept a swarm's storage for its next run.
func (b *Broadcaster) HoldsStorage() bool { return b.s != nil }

// Connections returns how many connections b's last run wired.
func (b *Broadcaster) Connections() int { return len(b.s.conns) }

// Timer returns peer i's rechoke timer from b's last run.
func (b *Broadcaster) Timer(i int) *sim.Event { return b.s.peers[i].rechokeEv }
