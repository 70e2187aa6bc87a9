package bittorrent

import "math"

// This file implements the control plane: the choke algorithm.
//
// Following the mainline client the paper instruments, each peer uploads
// to at most UploadSlots others: the top UploadSlots-1 ranked by transfer
// rate (tit-for-tat for leechers, delivery rate for seeds) plus one
// optimistic unchoke rotated every optimisticInterval. As in the mainline
// Choker, a re-rank runs not only on the periodic timer but also whenever
// a peer's interest changes — this responsiveness is what concentrates
// upload slots on fast (local) connections within a single ~20 s
// broadcast, producing the locality preference the paper measures.

// rateTau is the averaging horizon of the per-connection rate estimator,
// mirroring the mainline client's rolling rate measure.
const rateTau = 5.0

// rateEst is an exponentially-decayed throughput estimator.
type rateEst struct {
	v float64 // bytes/s estimate at time t
	t float64
}

func (r *rateEst) add(now, bytes float64) {
	r.v = float64(r.v*math.Exp(-(now-r.t)/rateTau)) + bytes/rateTau
	r.t = now
}

func (r *rateEst) at(now float64) float64 {
	return r.v * math.Exp(-(now-r.t)/rateTau)
}

// unchoke opens c for uploads from p[up] and immediately offers the
// downloader a request opportunity.
func (s *swarm) unchoke(c *conn, up int) {
	if !c.choked[up] {
		return
	}
	c.choked[up] = false
	c.p[up].unchoked++
	s.tryRequest(c, up)
}

// choke closes c for new uploads from p[up]. An in-flight batch is allowed
// to finish (as in the real protocol, outstanding requests drain).
func (s *swarm) choke(c *conn, up int) {
	if c.choked[up] {
		return
	}
	c.choked[up] = true
	c.p[up].unchoked--
}

// fillSlots eagerly unchokes random interested peers while p has free
// upload slots. It is the cheap, non-displacing slot refill used from
// within request processing; displacement decisions happen in rechoke.
func (s *swarm) fillSlots(p *peer) {
	if p.unchoked >= s.cfg.UploadSlots {
		return
	}
	base := len(s.connStack)
	for _, c := range p.conns {
		ps := c.side(p)
		if c.choked[ps] && c.interested[1-ps] && !c.p[1-ps].complete {
			s.connStack = append(s.connStack, c)
		}
	}
	idle := s.connStack[base:]
	for p.unchoked < s.cfg.UploadSlots && len(idle) > 0 {
		k := s.rng.Intn(len(idle))
		c := idle[k]
		idle[k] = idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		s.unchoke(c, c.side(p))
	}
	s.connStack = s.connStack[:base]
}

// rechoke re-ranks p's upload slots. rotate selects a fresh optimistic
// unchoke; it is set by the periodic tick every optimisticInterval.
func (s *swarm) rechoke(p *peer, rotate bool) {
	if p.rechoking {
		return // re-entrant call via unchoke->tryRequest; state already settling
	}
	p.rechoking = true
	defer func() { p.rechoking = false }()

	now := s.eng.Now()
	base := len(s.connStack)
	for _, c := range p.conns {
		ps := c.side(p)
		if c.interested[1-ps] && !c.p[1-ps].complete {
			s.connStack = append(s.connStack, c)
		}
	}
	cands := s.connStack[base:]
	// Leechers rank by what the remote gives them (tit-for-tat); seeds by
	// what they deliver to the remote (favouring fast downloaders, the
	// mainline seed policy). Shuffle first for random tie-breaking, then
	// sort stably by descending rate: an insertion sort, the candidates
	// being at most a peer set.
	s.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	rates := s.rateScratch[:0]
	for _, c := range cands {
		ps := c.side(p)
		if p.complete {
			ps = 1 - ps
		}
		rates = append(rates, c.rate[ps].at(now))
	}
	s.rateScratch = rates[:0]
	for i := 1; i < len(cands); i++ {
		c, r := cands[i], rates[i]
		j := i
		for ; j > 0 && rates[j-1] < r; j-- {
			cands[j], rates[j] = cands[j-1], rates[j-1]
		}
		cands[j], rates[j] = c, r
	}

	// The top regular candidates keep their slot; the rest are the pool
	// the optimistic unchoke draws from.
	regular := s.cfg.UploadSlots - 1
	if regular > len(cands) {
		regular = len(cands)
	}
	for _, c := range cands[:regular] {
		c.keep[c.side(p)] = true
	}
	// Optimistic slot.
	if p.optimistic != nil {
		ps := p.optimistic.side(p)
		if !p.optimistic.interested[1-ps] || p.optimistic.p[1-ps].complete {
			p.optimistic = nil
		}
	}
	if p.optimistic == nil || rotate || p.optimistic.keep[p.optimistic.side(p)] {
		if pool := cands[regular:]; len(pool) > 0 {
			p.optimistic = pool[s.rng.Intn(len(pool))]
		} else {
			p.optimistic = nil
		}
	}
	if p.optimistic != nil {
		p.optimistic.keep[p.optimistic.side(p)] = true
	}
	s.connStack = s.connStack[:base]

	for _, c := range p.conns {
		ps := c.side(p)
		keep := c.keep[ps]
		c.keep[ps] = false
		switch {
		case keep:
			if c.choked[ps] {
				s.unchoke(c, ps)
			} else if !c.busy[ps] {
				s.tryRequest(c, ps)
			}
		case !c.choked[ps]:
			s.choke(c, ps)
		}
	}
	// If fewer candidates than slots, the spare slots stay free for
	// eager refills as new interest arrives.
}

// rotateEvery is the number of rechokes per optimistic rotation.
const rotateEvery = int(optimisticInterval / rechokeInterval)

// tick is the periodic choker timer (every rechokeInterval), which also
// rotates the optimistic unchoke every optimisticInterval.
func (s *swarm) tick(p *peer) {
	p.rechokes++
	s.rechoke(p, p.rechokes%rotateEvery == 1)
	s.eng.Reschedule(p.rechokeEv, rechokeInterval)
}
