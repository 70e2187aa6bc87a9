package bittorrent

import "slices"

// This file implements the data plane: piece selection, request batches
// and fragment delivery.

// tryRequest starts the next request batch on connection c with p[up] as
// the uploader, if the downloader is unchoked, incomplete, and the
// connection is idle. It also maintains the downloader's interest flag.
func (s *swarm) tryRequest(c *conn, up int) {
	u, d := c.p[up], c.p[1-up]
	if c.choked[up] || c.busy[up] || d.complete {
		return
	}
	picked, sawUseful := s.selectPieces(d, u)
	wasInterested := c.interested[1-up]
	c.interested[1-up] = sawUseful
	if len(picked) == 0 {
		if wasInterested && !sawUseful && !c.choked[up] {
			// The downloader has nothing to gain from this uploader
			// any more: free the upload slot immediately rather than
			// letting it idle until the next rechoke tick.
			s.choke(c, up)
			s.fillSlots(u)
		}
		return
	}
	for _, pc := range picked {
		d.inflight.Set(int(pc))
	}
	c.batch[up] = append(s.takeBatch(), picked...)
	c.busy[up] = true
	c.sentAt[up] = s.eng.Now()
	size := float64(len(picked)) * float64(s.cfg.FragmentSize)
	s.flows++
	s.net.Send(u.host, d.host, size, s.pipelineCap(c, up), &c.up[up])
}

// pipelineCap returns the window-limited throughput ceiling of connection
// c with p[up] uploading: pipelineBytes outstanding over the path
// round-trip time. This reproduces the real client's behaviour of a single
// stream across a high-latency WAN running far below link capacity.
func (s *swarm) pipelineCap(c *conn, up int) float64 {
	if cap := c.pipeCap[up]; cap >= 0 {
		return cap
	}
	rtt := 2 * s.net.Path(c.p[up].host, c.p[1-up].host).Latency
	cap := 0.0
	if rtt > 0 {
		cap = float64(pipelineBytes) / rtt
	}
	c.pipeCap[up] = cap
	return cap
}

// selectPieces picks up to BatchFragments pieces for d to request from u,
// using sampled rarest-first: gather up to rarestSampling×BatchFragments
// candidates in d's (shuffled) need order, then keep those with the lowest
// global availability. The shuffled need order provides the random
// tie-breaking of the real client.
//
// The second return value reports whether u holds any piece d still needs
// (counting in-flight ones) — the protocol's "interested" predicate. The
// pieces are returned in the swarm's scratch, valid until the next call.
func (s *swarm) selectPieces(d, u *peer) ([]int32, bool) {
	want := s.batchLen
	sampleCap := want * rarestSampling

	cand := s.candScratch[:0]
	sawUseful := false

	if !u.complete && len(u.haveList) <= 4*sampleCap {
		// Early-swarm fast path: the uploader holds few pieces, so scan
		// its (short) acquisition list instead of the need list.
		for _, pc := range u.haveList {
			if d.have.Get(int(pc)) {
				continue
			}
			sawUseful = true
			if !d.inflight.Get(int(pc)) {
				cand = append(cand, pc)
				if len(cand) >= sampleCap {
					break
				}
			}
		}
		// Randomise candidate order: the acquisition list is not
		// shuffled, unlike the need list.
		s.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	} else {
		i := 0
		for i < len(d.need) && len(cand) < sampleCap {
			pc := d.need[i]
			if d.have.Get(int(pc)) {
				// Lazily compact pieces acquired since the last scan.
				d.need[i] = d.need[len(d.need)-1]
				d.need = d.need[:len(d.need)-1]
				continue
			}
			if u.complete || u.have.Get(int(pc)) {
				sawUseful = true
				if !d.inflight.Get(int(pc)) {
					cand = append(cand, pc)
				}
			}
			i++
		}
	}
	s.candScratch = cand[:0]
	if len(cand) == 0 {
		return nil, sawUseful
	}
	if len(cand) > want {
		// Partial selection sort by availability; earlier (random)
		// order breaks ties.
		for i := 0; i < want; i++ {
			best := i
			for j := i + 1; j < len(cand); j++ {
				if s.avail[cand[j]] < s.avail[cand[best]] {
					best = j
				}
			}
			cand[i], cand[best] = cand[best], cand[i]
		}
		cand = cand[:want]
	}
	return cand, true
}

// deliver completes a request batch: the downloader records the received
// fragments (the paper's instrumentation), updates availability, may
// complete its download, and pipelines the next request.
func (s *swarm) deliver(c *conn, up int) {
	d := c.p[1-up]
	// The buffer goes back to the free list only where this call no longer
	// reads it: the uploads started before then take others.
	batch := c.batch[up]
	c.busy[up] = false
	c.batch[up] = nil

	c.frags[up] += int32(len(batch))
	c.rate[1-up].add(s.eng.Now(), float64(len(batch))*float64(s.cfg.FragmentSize))

	for _, pc := range batch {
		d.inflight.Clear(int(pc))
		if d.have.Set(int(pc)) {
			s.avail[pc]++
			if len(d.haveList) < cap(d.haveList) {
				d.haveList = append(d.haveList, pc)
			}
		}
	}

	if !d.complete && d.have.Full() {
		s.completeDownload(d)
		if s.remaining == 0 {
			s.batchFree = append(s.batchFree, batch[:0])
			return
		}
	}

	// The new pieces may make neighbours interested in d; wake them. As
	// in the mainline Choker, an interest change triggers a re-rank of
	// d's upload slots (possibly displacing a slower peer).
	woke := false
	for _, cc := range d.conns {
		ds := cc.side(d)
		r := cc.p[1-ds]
		if r.complete || cc.interested[1-ds] {
			continue
		}
		useful := false
		for _, pc := range batch {
			if !r.have.Get(int(pc)) {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		cc.interested[1-ds] = true
		if !cc.choked[ds] {
			s.tryRequest(cc, ds)
		} else {
			woke = true
		}
	}
	if woke {
		s.rechoke(d, false)
	}

	// Pipeline the next batch on this connection.
	s.batchFree = append(s.batchFree, batch[:0])
	s.tryRequest(c, up)
}

// takeBatch returns an empty request buffer of batchLen capacity from the
// free list, which it refills 64 buffers at a time from a new slab. Every
// buffer is back on the list when a run ends, for the next run to reuse.
func (s *swarm) takeBatch() []int32 {
	if len(s.batchFree) == 0 {
		slab := make([]int32, 64*s.batchLen)
		s.batchFree = slices.Grow(s.batchFree, 64)
		for i := 0; i < len(slab); i += s.batchLen {
			s.batchFree = append(s.batchFree, slab[i:i:i+s.batchLen])
		}
	}
	k := len(s.batchFree) - 1
	buf := s.batchFree[k]
	s.batchFree = s.batchFree[:k]
	return buf
}

// completeDownload marks d as finished. d stays in the swarm as a seed.
func (s *swarm) completeDownload(d *peer) {
	d.complete = true
	d.doneAt = s.eng.Now()
	s.remaining--
	for _, c := range d.conns {
		ds := c.side(d)
		// d wants nothing further.
		c.interested[ds] = false
		// Peers uploading to d get their slot back immediately.
		if !c.choked[1-ds] && !c.busy[1-ds] {
			r := c.p[1-ds]
			s.choke(c, 1-ds)
			s.fillSlots(r)
		}
	}
	if s.remaining == 0 {
		s.finish()
	}
}
