package archive

import (
	"encoding/json"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/persist"
)

// Snapshot is the archive's state in parsed form: the ledger's
// first-record-per-key fold with Status's ledger half (per-backend and
// per-owner counts and seconds) folded alongside it, the streamed
// manifest's finished cells, the head of every manifest document, and
// the listing of the archive documents in runs/. Advance brings it up to
// date by reading only what moved since the previous Advance, so a
// long-lived holder (archive/serve keeps one per handler, and
// events.Watcher one per feed, taking Follow's delta) pays O(what
// changed) per query where a fresh one (every Store method) pays
// O(archive), and holds what it parsed while it lives: O(ledger + log +
// runs/) memory, about 1 MB at 10^3 runs. Status reads no ledger line
// it holds again, and Generation tells a holder that keeps what it
// built from Runs when to build it again. That first
// Advance over 10^3 runs takes about 10 ms and 20,000 allocations on a
// 2-core Xeon guest (BenchmarkColdAdvance). About half of it reads
// the ledger and the log, whose lines persist.Fields decodes in one pass;
// two fifths list runs/, a stat per document; the rest reads
// manifest.json, whose entries persist.Fields steps over unmaterialised.
//
// It is not safe for concurrent use: Advance writes what the views
// read. Views only read, and nothing they return aliases the Snapshot,
// so a holder needs one lock around "Advance, then view" and none
// around what it does with the result.
type Snapshot struct {
	at campaign.Dir

	index  tail         // runs/index.json, as far as ledger has folded it
	ledger fleet.Ledger // first record per key, key -> position, line count
	tally  tally        // Status's ledger half, folded with ledger.First

	log    tail             // manifest.log, as far as cells has folded it
	cells  []campaign.Entry // its done cells, latest record per (index, key)
	cellAt map[cellID]int

	// heads holds the head of manifest.json (under "") and of each
	// manifests/<owner>.json (under the owner).
	heads map[string]head

	// docs lists the archive documents of runs/ in key order, as they
	// were when the directory had the facts runsAt (nil: not listed, or
	// no directory).
	runsAt os.FileInfo
	docs   []doc

	gen uint64 // Generation
}

// Generation names the state Runs shows: while it holds, Runs returns
// what it returned when it last read it. It moves with every ledger line
// an Advance folds (duplicates too), every refold and every listing of
// runs/, so it may move while Runs' answer stays the same, never the
// other way.
func (s *Snapshot) Generation() uint64 { return s.gen }

// doc is one archive document as the runs/ listing saw it.
type doc struct {
	key  string
	size int64
}

// cellID names one grid cell in the streamed manifest.
type cellID struct {
	index int
	key   string
}

// head is the fixed-size head of one manifest document — all that Status
// reads of it, decoded without materialising the entries — and the file
// facts it was decoded at. A document that did not decode is not ok (one
// mid-publication degrades that entry, never the query).
type head struct {
	fi       os.FileInfo
	ok       bool
	Campaign string `json:"campaign"`
	ManifestSummary
}

// Snapshot returns an empty Snapshot of the store's directory; the first
// Advance reads the archive whole.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{at: s.at, cellAt: make(map[cellID]int)}
}

// Advance brings the Snapshot up to date with the directory. Each file
// is stat'ed; one whose identity, size and mtime have not moved costs
// nothing more, and an append-only file that grew is read from the
// remembered offset through fleet.ScanLines (a torn tail stays
// unconsumed, garbage and oversized lines are skipped, the first ledger
// record still wins across increments). A file that vanished, shrank
// below the offset or was replaced (os.SameFile fails: GC's ledger
// compaction renames a new file into place) is folded again from zero.
// The runs/ directory is listed again when its own facts moved or when
// this Advance folded anything from the ledger or the log: a writer
// renames a document in before it appends the ledger line, and GC
// removes documents before it compacts the ledger, so a rename or unlink
// inside the timestamp tick of the last listing — the directory's mtime
// unmoved — is still seen once the append that follows it is.
// What stat cannot see — an inode rewritten in place, or recycled by a
// second replacement since the last Advance — nothing that writes an
// archive does. What the listing cannot see is a change to runs/ inside
// the timestamp tick of the last listing that no ledger or log change
// follows: a hand edit, or GC over an archive with no ledger lines.
func (s *Snapshot) Advance() error {
	// tail.advance replaces a tail's facts exactly when the file moved.
	index, log := s.index.fi, s.log.fi
	if err := s.Follow(Changes{}); err != nil {
		return err
	}
	if err := s.advanceHeads(); err != nil {
		return err
	}
	return s.advanceRuns(s.index.fi != index || s.log.fi != log)
}

// Changes receives what a Follow folds, in file order; a nil callback is
// skipped. Cell sees every manifest.log record, duplicates and failed
// cells included. Run sees the first record of each ledger key the fold
// did not hold before — before includes a fold that a refold replaced,
// so a compaction that keeps a key hands over nothing for it.
type Changes struct {
	Cell func(campaign.Entry)
	Run  func(fleet.IndexEntry)
}

// Follow is Advance without the manifest heads, handing what it folds to
// c: the streamed manifest, then the ledger. A log that was replaced,
// shrank or vanished is a new history, handed over from its start.
func (s *Snapshot) Follow(c Changes) error {
	if err := s.advanceCells(c.Cell); err != nil {
		return err
	}
	return s.advanceLedger(c.Run)
}

func (s *Snapshot) advanceLedger(run func(fleet.IndexEntry)) error {
	var before map[string]int // the fold a refold in this advance replaced
	add := func(e fleet.IndexEntry) {
		s.gen++
		n := len(s.ledger.First)
		if s.ledger.Add(e); len(s.ledger.First) == n {
			return // a later record of a key the fold holds
		}
		s.tally.add(e)
		if _, had := before[e.Key]; run != nil && !had {
			run(e)
		}
	}
	refold := func() {
		before, s.ledger, s.tally = s.ledger.At, fleet.Ledger{}, tally{}
		s.gen++
	}
	return s.index.advance(s.at.Index(), refold, func(offset int64) (int64, error) {
		return fleet.ScanIndex(s.at.Index(), offset, add)
	})
}

func (s *Snapshot) advanceCells(cell func(campaign.Entry)) error {
	add := s.addCell
	if cell != nil {
		add = func(e campaign.Entry) {
			s.addCell(e)
			cell(e)
		}
	}
	return s.log.advance(s.at.Log(), func() { s.cells, s.cellAt = nil, make(map[cellID]int) }, func(offset int64) (int64, error) {
		return scanLog(s.at.Log(), offset, add)
	})
}

// addCell folds one streamed-manifest record: only done cells are
// finished results, and the latest record of a cell wins, so warm
// re-invocations that re-append the log never double-count.
func (s *Snapshot) addCell(e campaign.Entry) {
	if e.Status != "done" {
		return
	}
	id := cellID{e.Index, e.Key}
	if i, ok := s.cellAt[id]; ok {
		s.cells[i] = e
		return
	}
	s.cellAt[id] = len(s.cells)
	s.cells = append(s.cells, e)
}

// finished is every finished cell exactly once. While there is no
// manifest.log (an archive written before streaming existed, or one whose
// log was pruned) the cumulative manifest.json's done entries stand in,
// read as they are now.
func (s *Snapshot) finished() []campaign.Entry {
	if s.log.fi != nil {
		return s.cells
	}
	var man campaign.Manifest
	if readJSON(s.at.Manifest(), &man) != nil {
		return nil // no log, no manifest: nothing finished yet
	}
	cells := man.Entries[:0]
	for _, e := range man.Entries {
		if e.Status == "done" {
			cells = append(cells, e)
		}
	}
	return cells
}

func (s *Snapshot) advanceHeads() error {
	next := make(map[string]head, len(s.heads))
	// keep carries a head over while its file's facts hold; a head whose
	// file moved is read again, manifest.json under "" and an owner's
	// manifest under the owner.
	keep := func(name string, fi os.FileInfo) {
		h, ok := s.heads[name]
		if !ok || !sameFacts(h.fi, fi) {
			path := s.at.Manifest()
			if name != "" {
				path = s.at.OwnerManifest(name)
			}
			h = readHead(path, fi)
		}
		next[name] = h
	}
	if fi, err := os.Stat(s.at.Manifest()); err == nil {
		keep("", fi)
	}
	dir, err := os.ReadDir(s.at.Manifests())
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, d := range dir {
		owner, ok := strings.CutSuffix(d.Name(), ".json")
		if !ok || d.IsDir() || owner == "" {
			continue
		}
		if fi, err := d.Info(); err == nil {
			keep(owner, fi)
		}
	}
	s.heads = next
	return nil
}

// readHead decodes the head of the manifest at path, stat'ed as fi, as
// json.Unmarshal would, but without materialising the entries: by
// readHeadFields when it can, by json.Unmarshal when it cannot. It is
// apart from keep so that only a head read again escapes to the heap:
// one carried over costs an idle Advance nothing.
func readHead(path string, fi os.FileInfo) head {
	data, err := os.ReadFile(path)
	if err != nil {
		return head{fi: fi}
	}
	h, ok := readHeadFields(data)
	if !ok {
		h = head{}
		ok = json.Unmarshal(data, &h) == nil
	}
	h.fi, h.ok = fi, ok
	return h
}

// readHeadFields is readHead's fast path (see persist.Fields): the members
// of a campaign.Manifest in field order, the head's read and the rest
// stepped over, each checked as json.Valid would. It reports false for
// any document it does not read as json.Unmarshal would.
func readHeadFields(data []byte) (h head, ok bool) {
	f := persist.ReadFields(data)
	f.Skip("version")
	h.Campaign = f.String("campaign")
	f.Skip("jobs")
	f.Skip("fleet")
	f.Skip("owner")
	h.Runs = f.Int("runs")
	h.Hits = f.Int("hits")
	h.Misses = f.Int("misses")
	h.Dups = f.Int("dups")
	h.Failures = f.Int("failures")
	h.WallSeconds = f.Float("wall_seconds")
	f.Skip("entries")
	return h, f.Done()
}

// advanceRuns lists runs/ again when moved is set or the directory's
// facts moved since the last listing.
func (s *Snapshot) advanceRuns(moved bool) error {
	fi, err := os.Stat(s.at.Runs()) // fi is nil when there is no directory
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if !moved && s.runsAt != nil && fi != nil && sameFacts(s.runsAt, fi) {
		return nil
	}
	// The facts from before the listing: a change during it is caught by
	// the next advance. A listing that failed is retried by it.
	s.runsAt, s.docs = nil, s.docs[:0]
	s.gen++
	if fi == nil {
		return nil
	}
	err = archived(s.at, func(key string, d os.DirEntry) {
		var size int64
		if fi, err := d.Info(); err == nil {
			size = fi.Size()
		}
		s.docs = append(s.docs, doc{key, size})
	})
	if err == nil {
		s.runsAt = fi
	}
	return err
}

// readJSON decodes one whole JSON document. Manifests are written
// atomically, so a read either gets a whole document or no file.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// sameFacts reports whether two stats are of one unchanged file — the
// facts Stamp() formats, plus identity.
func sameFacts(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// tail is how far one append-only file has been folded: the file it was
// when last looked at (nil: absent) and the offset just past the last
// line consumed.
type tail struct {
	fi  os.FileInfo
	off int64
}

// advance folds what path gained since the last call: nothing when the
// file's facts have not moved, scan(t.off) when it grew, and reset then
// scan(0) when what is there is not the remembered file with more
// appended. scan returns the offset it consumed up to.
func (t *tail) advance(path string, reset func(), scan func(offset int64) (int64, error)) error {
	fi, err := os.Stat(path) // fi is nil when there is no file
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if t.fi != nil && fi != nil && sameFacts(t.fi, fi) {
		return nil
	}
	if t.fi != nil && (fi == nil || !os.SameFile(t.fi, fi) || fi.Size() < t.off) {
		reset()
		t.off = 0
	}
	// The facts from before the scan: a file replaced between the two is
	// caught by the next advance.
	t.fi = fi
	if fi == nil {
		return nil
	}
	t.off, err = scan(t.off)
	return err
}
