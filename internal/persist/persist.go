// Package persist serialises measurement graphs, tomography results and
// scenario specs to JSON, so a measurement campaign can be archived,
// shipped, re-clustered offline, or compared across runs without
// re-measuring — the workflow a real deployment of the paper's method
// needs (measurement is cheap but not free; analysis is reusable). It is
// also the one package that reads back, by hand, JSON this program
// wrote: ReadGraph the graph archive, Fields the ledger and manifest
// lines and manifest heads, both on one copy of the JSON grammar.
package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// WriteAtomic writes a file via a temporary sibling plus rename, first
// creating any missing parent directories: archive paths are routinely
// date- or campaign-structured ("runs/2026-07/gt.json"), and failing on a
// missing directory turns a finished measurement into an error.
//
// Atomicity is a cache-integrity requirement, not a nicety: the campaign
// subsystem treats the presence of an archive file as proof the run it
// names was completed, so a process killed mid-write must never leave a
// torn document at the final path — either the rename happened and the
// file is whole, or the path is untouched (a stale *.tmp-* sibling may
// remain and is ignored by every reader). If write returns an error, the
// destination is left exactly as it was.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	// CreateTemp makes the file 0600; published artifacts are meant to be
	// shared (spec files handed around, campaign archives read by other
	// users), so restore the conventional mode before the rename.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	// Flush to stable storage before the rename publishes the file, so a
	// crash cannot expose a whole-looking but empty archive.
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return err
	}
	tmp = nil
	return nil
}

// formatVersion is the "version" every document of this package carries.
const formatVersion = 1

// graphHeader is a graph document without its edges: the part WriteGraph
// leaves to encoding/json.
type graphHeader struct {
	Version int      `json:"version"`
	N       int      `json:"n"`
	Labels  []string `json:"labels"`
}

// WriteGraph writes a graph as JSON with two-space indentation: an object
// of "version", "n", "labels" (the vertex display names) and "edges"
// ([u, v, weight] triples with u <= v, in Edges() order; null when there
// are none), byte for byte what json.Encoder produces for such a struct.
//
// The edge array — all but a few kilobytes of a dense graph's document —
// is formatted straight from the adjacency by GOMAXPROCS worker
// goroutines (no more than there are chunks of 1,024 consecutive edges),
// each into two chunk buffers of at most 80 KB, and the calling goroutine
// copies the chunks, strictly in order, into a 64 KB write buffer; later
// calls reuse both. So the document is streamed, never held whole, and
// w sees 64 KB writes whatever a chunk's text weighs: a destination that
// grows by doubling, such as a bytes.Buffer, grows in powers of two from
// 64 KB. The error returned is the first in document order — an edge
// whose weight JSON cannot carry, or a failed write — and WriteGraph
// returns only once every worker has stopped.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	hdr := graphHeader{Version: formatVersion, N: g.N()}
	if g.N() > 0 { // no vertices writes "labels": null, as the encoder does
		hdr.Labels = make([]string, g.N())
		for v := range hdr.Labels {
			hdr.Labels[v] = g.Label(v)
		}
	}
	head, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return err
	}
	bw := graphWriters.Get().(*graphWriter)
	defer graphWriters.Put(bw)
	bw.Reset(w)
	defer bw.Reset(nil)
	bw.Write(head[:len(head)-len("\n}")]) // reopen the object
	bw.WriteString(",\n  \"edges\": ")
	if g.EdgeCount() == 0 {
		bw.WriteString("null")
	} else {
		bw.WriteByte('[')
		if err := bw.writeEdges(g); err != nil {
			return err
		}
		bw.WriteString("\n  ]")
	}
	bw.WriteString("\n}\n")
	return bw.Flush() // reports the first failed write, if any
}

// An edge's text is ",\n    [\n      u,\n      v,\n      w\n    ]": 36
// bytes of punctuation, at most 24 of weight and two vertex numbers of
// at most ten digits each.
const (
	chunkEdges  = 1024 // consecutive edges a worker formats at a time
	maxEdgeText = 80
)

// graphWriter is what WriteGraph keeps from one call to the next in
// graphWriters, so that what a write allocates does not grow with its
// chunk count: the 64 KB write buffer, and what the workers share — the
// graph, how its edge array is cut into chunks and dealt out, the ring of
// chunk buffers and a channel per worker. Only stop changes while they
// run.
type graphWriter struct {
	bufio.Writer
	g                      *graph.Graph
	edges, chunks, workers int
	// ring holds at least min(chunks, 2*workers) slots of slot bytes;
	// chunk i is formatted into slot i % (2*workers).
	ring []byte
	slot int
	out  []chan chunkText // worker k sends its chunks on out[k]
	stop chan struct{}    // closed when the writer takes no more chunks
	wg   sync.WaitGroup   // the workers still running
}

var graphWriters = sync.Pool{New: func() any {
	w := new(graphWriter)
	w.Writer = *bufio.NewWriterSize(nil, 64<<10)
	return w
}}

// chunkText is one formatted chunk, or the error that cut it short.
type chunkText struct {
	text []byte
	err  error
}

// writeEdges writes the elements of g's edge array, each preceded by a
// comma but the first. Worker k formats chunks k, k+workers, ...; the
// writer takes chunk i from worker i % workers.
func (w *graphWriter) writeEdges(g *graph.Graph) error {
	w.g, w.edges = g, g.EdgeCount()
	w.chunks = (w.edges + chunkEdges - 1) / chunkEdges
	w.workers = min(runtime.GOMAXPROCS(0), w.chunks)
	w.slot = min(w.edges, chunkEdges) * maxEdgeText
	if n := min(w.chunks, 2*w.workers) * w.slot; len(w.ring) < n {
		w.ring = make([]byte, n)
	}
	if len(w.out) < w.workers {
		w.out = make([]chan chunkText, w.workers)
		for k := range w.out {
			w.out[k] = make(chan chunkText)
		}
	}
	w.stop = make(chan struct{})
	w.wg.Add(w.workers)
	for k := range w.workers {
		go w.format(k)
	}
	defer func() {
		close(w.stop)
		w.wg.Wait()
		w.g = nil
	}()
	for i := 0; i < w.chunks; i++ {
		chunk := <-w.out[i%w.workers]
		if chunk.err != nil {
			return chunk.err
		}
		if _, err := w.Write(chunk.text); err != nil {
			return err
		}
	}
	return nil
}

// format formats chunks k, k+workers, ... and sends each on out[k], until
// its last chunk, an unencodable weight, or stop. Its chunks alternate
// between two slots of the ring, and out[k] is unbuffered: by the time
// the writer has taken a chunk it has written the one before it, so the
// slot format fills next is free.
func (w *graphWriter) format(k int) {
	defer w.wg.Done()
	u, first := 0, 0 // a row, and the index of its first edge in the array
	row := w.g.UpperNeighbors(0)
	for i := k; i < w.chunks; i += w.workers {
		s := i % (2 * w.workers) * w.slot
		chunk := chunkText{text: w.ring[s : s : s+w.slot]}
		for at, end := i*chunkEdges, min((i+1)*chunkEdges, w.edges); at < end && chunk.err == nil; {
			for at >= first+len(row) {
				first += len(row)
				u++
				row = w.g.UpperNeighbors(u)
			}
			part := row[at-first : min(end-first, len(row))]
			chunk.text, chunk.err = appendEdges(chunk.text, u, part, at == 0)
			at += len(part)
		}
		select {
		case w.out[k] <- chunk:
		case <-w.stop:
			return
		}
		if chunk.err != nil {
			return
		}
	}
}

// appendEdges appends the text of the edges from u to each of part,
// consecutive neighbours in u's row, each preceded by a comma but the
// document's first edge.
func appendEdges(b []byte, u int, part []graph.Neighbor, documentFirst bool) ([]byte, error) {
	// line holds an edge's text up to v: u once, v stepped in place when
	// it follows the last.
	var line [48]byte
	p := append(line[:0], ",\n    [\n      "...)
	p = strconv.AppendInt(p, int64(u), 10)
	p = append(p, ",\n      "...)
	head, last, sep := len(p), -2, 0
	if documentFirst {
		sep = 1
	}
	for _, e := range part {
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return b, fmt.Errorf("persist: edge (%d,%d) has unencodable weight %v", u, e.V, e.Weight)
		}
		if e.V == last+1 {
			p = increment(p)
		} else {
			p = strconv.AppendInt(p[:head], int64(e.V), 10)
		}
		last = e.V
		b = append(b, p[sep:]...)
		b = append(b, ",\n      "...)
		b = appendFloat(b, e.Weight)
		b = append(b, "\n    ]"...)
		sep = 0
	}
	return b, nil
}

// increment adds one to the decimal number that ends b after a
// non-digit, in place.
func increment(b []byte) []byte {
	i := len(b) - 1
	for ; b[i] == '9'; i-- {
		b[i] = '0'
	}
	if b[i]-'0' > 9 { // all nines: one digit more
		b[i+1] = '1'
		return append(b, '0')
	}
	b[i]++
	return b
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21), and a one-digit
// negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// SaveGraph writes a graph to a file atomically (temp file + rename),
// creating missing parent directories.
func SaveGraph(path string, g *graph.Graph) error {
	return WriteAtomic(path, func(w io.Writer) error { return WriteGraph(w, g) })
}

// LoadGraph reads a graph from a file; a document ReadGraph rejects is
// reported with the file's path.
func LoadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// ResultDoc is the JSON form of a tomography outcome summary: the final
// clustering, its quality, and the convergence series.
type ResultDoc struct {
	Version   int       `json:"version"`
	Dataset   string    `json:"dataset,omitempty"`
	N         int       `json:"n"`
	Labels    []int     `json:"labels"`
	Q         float64   `json:"q"`
	NMI       *float64  `json:"nmi,omitempty"` // nil when no ground truth
	NMISeries []float64 `json:"nmi_series,omitempty"`
	SimTime   float64   `json:"sim_time_seconds"`
}

// EncodeResult builds a ResultDoc from clustering output. Pass NaN as nmi
// when no ground truth was available.
func EncodeResult(dataset string, p cluster.Partition, q, nmiV, simTime float64, series []float64) *ResultDoc {
	doc := &ResultDoc{
		Version: formatVersion,
		Dataset: dataset,
		N:       p.N(),
		Labels:  append([]int(nil), p.Labels...),
		Q:       q,
		SimTime: simTime,
	}
	if !math.IsNaN(nmiV) {
		v := nmiV
		doc.NMI = &v
	}
	for _, s := range series {
		if !math.IsNaN(s) {
			doc.NMISeries = append(doc.NMISeries, s)
		}
	}
	return doc
}

// Partition reconstructs the cluster assignment.
func (d *ResultDoc) Partition() (cluster.Partition, error) {
	if d.Version != formatVersion {
		return cluster.Partition{}, fmt.Errorf("persist: unsupported result version %d", d.Version)
	}
	if len(d.Labels) != d.N {
		return cluster.Partition{}, fmt.Errorf("persist: %d labels for %d nodes", len(d.Labels), d.N)
	}
	return cluster.NewPartition(d.Labels), nil
}

// SaveResult writes a result document as indented JSON to a file
// atomically (temp file + rename), creating missing parent directories.
// Campaign run archives are written through this path, so an interrupted
// campaign can never leave a torn archive that poisons its
// content-addressed cache.
func SaveResult(path string, doc *ResultDoc) error {
	return SaveJSON(path, doc)
}

// LoadResult reads a result document from a file. The file must hold
// exactly one JSON document: anything but white space after it is an
// error, so an archive with bytes appended is not a cache hit.
func LoadResult(path string) (*ResultDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return &doc, nil
}

// SaveJSON writes any value as indented JSON atomically — the shared
// publication path for structured artifacts that are not one of the typed
// documents above (campaign manifests, benchmark reports).
func SaveJSON(path string, v any) error {
	return WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// SaveSpec writes a validated scenario spec as JSON to a file atomically
// (temp file + rename), creating missing parent directories. Spec files
// are the declarative scenario interchange format: hand-written or
// generated, they load back with LoadSpec and run via `bttomo -spec` or
// repro.RunSpec.
func SaveSpec(path string, s *scenario.Spec) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// LoadSpec reads and validates a scenario spec from a file
// (scenario.Decode).
func LoadSpec(path string) (*scenario.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scenario.Decode(data)
}
