package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/graph"
)

// Streaming grid construction: produce the exact block-major layout
// BuildParallel produces, but with transient memory bounded by an
// explicit budget instead of O(|E|). Edges are consumed in list order
// in budget-sized runs; each run is counting-sorted by block (stable)
// and spilled to a temp file as fixed 16-byte records; a block-major
// merge then replays the runs in order. Stability per run plus
// run-order concatenation per block reproduces BuildParallel's stable
// counting sort exactly, so the emitted stream is byte-identical to the
// in-memory build at any budget — the property the stream tests pin and
// the v2 container format relies on (a grid section written by
// StreamGridInto must equal the grid BuildParallel derives from the
// edge section).
//
// This is the full-scale path the down-scaled datasets stand in for:
// live-journal at its published 69M edges partitions in a few hundred
// MB of transient memory regardless of P.

// StreamOptions tunes the streaming builder.
type StreamOptions struct {
	// BudgetBytes bounds transient memory (run buffers and sort
	// scratch). 0 means 256 MiB; values below 1 MiB are raised to it.
	BudgetBytes int64
	// TmpDir hosts the spill files; empty means os.TempDir().
	TmpDir string
}

const (
	streamDefaultBudget = 256 << 20
	streamMinBudget     = 1 << 20
	// streamRecBytes is the spill record: [block u32][src u32][dst u32]
	// [weight f32], weight 0 for unweighted graphs. Fixed width keeps
	// the merge readers trivially seekable.
	streamRecBytes = 16
	// streamRecCost is the per-entry transient cost charged against the
	// budget: the sorted record buffer (16 B), the block-id scratch
	// (4 B), and amortized I/O buffering.
	streamRecCost = 24
	// streamEmitEdges sizes the merge-side emission buffer.
	streamEmitEdges = 1 << 15
)

type streamRec struct {
	block    int32
	src, dst uint32
	w        float32
}

// streamGrid drives the two-pass build: it computes the block offsets
// and calls emit with consecutive chunks of the final block-major edge
// stream (weights non-nil iff g is weighted). Transient memory stays
// within opt.BudgetBytes (plus the P²-proportional offset/count arrays,
// which any grid representation needs).
func streamGrid(g *graph.Graph, a Assigner, opt StreamOptions,
	emit func(edges []graph.Edge, weights []float32) error) ([]int64, error) {

	if g.NumVertices != a.NumVertices() {
		return nil, fmt.Errorf("partition: assigner built for %d vertices, graph has %d",
			a.NumVertices(), g.NumVertices)
	}
	p := a.P()
	nb := p * p
	ne := len(g.Edges)
	if int64(p)*int64(p) > math.MaxInt32 {
		return nil, fmt.Errorf("partition: %d intervals produce more blocks than addressable", p)
	}

	budget := opt.BudgetBytes
	if budget <= 0 {
		budget = streamDefaultBudget
	}
	if budget < streamMinBudget {
		budget = streamMinBudget
	}
	runEntries := int(budget / streamRecCost)
	if runEntries < 1<<12 {
		runEntries = 1 << 12
	}
	runs := 0
	if ne > 0 {
		runs = (ne + runEntries - 1) / runEntries
	}

	counts := make([]int64, nb)    // global per-block totals → offsets
	runCounts := make([]int64, nb) // per-run histogram / sort cursors
	n := min(ne, runEntries)
	ids := make([]int32, n)        // per-run block ids
	sorted := make([]streamRec, n) // per-run counting-sort output

	// sortRun counting-sorts g.Edges[lo:hi] by block into sorted
	// (stable: list order within a block) and folds the histogram into
	// the global counts.
	sortRun := func(lo, hi int) []streamRec {
		m := hi - lo
		for b := range runCounts {
			runCounts[b] = 0
		}
		fillBlockIDs(a, g.Edges[lo:hi], ids[:m], 0, m, runCounts)
		var cur int64
		for b := 0; b < nb; b++ {
			c := runCounts[b]
			counts[b] += c
			runCounts[b] = cur
			cur += c
		}
		for i := 0; i < m; i++ {
			b := ids[i]
			at := runCounts[b]
			runCounts[b]++
			e := g.Edges[lo+i]
			r := streamRec{block: b, src: e.Src, dst: e.Dst}
			if g.Weights != nil {
				r.w = g.Weights[lo+i]
			}
			sorted[at] = r
		}
		return sorted[:m]
	}

	offsets := func() []int64 {
		off := make([]int64, nb+1)
		var total int64
		for b := 0; b < nb; b++ {
			off[b] = total
			total += counts[b]
		}
		off[nb] = total
		return off
	}

	emitRecs := func(recs []streamRec) error {
		eb := make([]graph.Edge, 0, min(len(recs), streamEmitEdges))
		var wb []float32
		if g.Weights != nil {
			wb = make([]float32, 0, cap(eb))
		}
		flush := func() error {
			if len(eb) == 0 {
				return nil
			}
			err := emit(eb, wb)
			eb = eb[:0]
			if wb != nil {
				wb = wb[:0]
			}
			return err
		}
		for _, r := range recs {
			eb = append(eb, graph.Edge{Src: r.src, Dst: r.dst})
			if wb != nil {
				wb = append(wb, r.w)
			}
			if len(eb) == cap(eb) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}

	if runs <= 1 {
		// Everything fits in one run: sort in memory, emit directly.
		var recs []streamRec
		if ne > 0 {
			recs = sortRun(0, ne)
		}
		if err := emitRecs(recs); err != nil {
			return nil, err
		}
		return offsets(), nil
	}

	// Spill pass: sort each run and append its records to one temp file.
	spill, err := os.CreateTemp(opt.TmpDir, "hyve-stream-*.runs")
	if err != nil {
		return nil, err
	}
	defer func() {
		spill.Close()
		os.Remove(spill.Name())
	}()
	bw := bufio.NewWriterSize(spill, 1<<20)
	runBounds := make([]int64, runs+1) // record counts per run boundary
	var rec [streamRecBytes]byte
	for r := 0; r < runs; r++ {
		lo := r * ne / runs
		hi := (r + 1) * ne / runs
		for _, s := range sortRun(lo, hi) {
			binary.LittleEndian.PutUint32(rec[0:], uint32(s.block))
			binary.LittleEndian.PutUint32(rec[4:], s.src)
			binary.LittleEndian.PutUint32(rec[8:], s.dst)
			binary.LittleEndian.PutUint32(rec[12:], math.Float32bits(s.w))
			if _, err := bw.Write(rec[:]); err != nil {
				return nil, err
			}
		}
		runBounds[r+1] = runBounds[r] + int64(hi-lo)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}

	// Merge pass: each run's records for block b are contiguous at its
	// reader's head when b comes around, so draining runs in order per
	// block replays BuildParallel's chunk-cursor scatter exactly.
	readers := make([]*runReader, runs)
	for r := 0; r < runs; r++ {
		readers[r] = newRunReader(spill, runBounds[r], runBounds[r+1])
	}
	eb := make([]graph.Edge, 0, streamEmitEdges)
	var wb []float32
	if g.Weights != nil {
		wb = make([]float32, 0, streamEmitEdges)
	}
	flush := func() error {
		if len(eb) == 0 {
			return nil
		}
		err := emit(eb, wb)
		eb = eb[:0]
		if wb != nil {
			wb = wb[:0]
		}
		return err
	}
	for b := int32(0); int(b) < nb; b++ {
		for _, rd := range readers {
			for rd.ok && rd.cur.block == b {
				eb = append(eb, graph.Edge{Src: rd.cur.src, Dst: rd.cur.dst})
				if wb != nil {
					wb = append(wb, rd.cur.w)
				}
				if len(eb) == cap(eb) {
					if err := flush(); err != nil {
						return nil, err
					}
				}
				if err := rd.advance(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for _, rd := range readers {
		if rd.ok {
			return nil, fmt.Errorf("partition: stream merge left records behind (internal error)")
		}
	}
	return offsets(), nil
}

// runReader decodes one run's records sequentially with one-record
// lookahead, so the merge can test the head's block id.
type runReader struct {
	br  *bufio.Reader
	n   int64 // records remaining (including cur when ok)
	cur streamRec
	ok  bool
	// buf is the decode scratch; a field rather than a local so the
	// io.ReadFull interface boundary doesn't heap-allocate per record.
	buf [streamRecBytes]byte
}

func newRunReader(f *os.File, lo, hi int64) *runReader {
	rd := &runReader{
		br: bufio.NewReaderSize(io.NewSectionReader(f, lo*streamRecBytes, (hi-lo)*streamRecBytes), 1<<18),
		n:  hi - lo,
	}
	rd.ok = true
	// Prime the lookahead; an immediate error surfaces on first advance.
	_ = rd.advance()
	return rd
}

func (rd *runReader) advance() error {
	if rd.n == 0 {
		rd.ok = false
		return nil
	}
	if _, err := io.ReadFull(rd.br, rd.buf[:]); err != nil {
		rd.ok = false
		return fmt.Errorf("partition: reading spill run: %w", err)
	}
	rd.n--
	rd.cur = streamRec{
		block: int32(binary.LittleEndian.Uint32(rd.buf[0:])),
		src:   binary.LittleEndian.Uint32(rd.buf[4:]),
		dst:   binary.LittleEndian.Uint32(rd.buf[8:]),
		w:     math.Float32frombits(binary.LittleEndian.Uint32(rd.buf[12:])),
	}
	rd.ok = true
	return nil
}

// StreamGridInto streams g's grid layout under a into w as v2 grid
// sections (GOFF, GEDG, and GWGT when weighted) without materializing
// the grid. The assigner must be one of the two production families —
// the container header records which, so a loader can reconstruct the
// assigner and trust the stored layout.
func StreamGridInto(w *graph.V2Writer, g *graph.Graph, a Assigner, opt StreamOptions) error {
	switch t := a.(type) {
	case *Hashed:
		w.SetGrid(t.P(), false)
	case *Contiguous:
		w.SetGrid(t.P(), true)
	default:
		return fmt.Errorf("partition: v2 grid sections require a Hashed or Contiguous assigner, got %T", a)
	}

	// Weights must follow edges as their own section, so they are
	// spooled to a temp file during the edge pass and replayed after.
	var wspool *os.File
	var wbuf *bufio.Writer
	if g.Weights != nil {
		f, err := os.CreateTemp(opt.TmpDir, "hyve-stream-*.wgts")
		if err != nil {
			return err
		}
		defer func() {
			f.Close()
			os.Remove(f.Name())
		}()
		wspool, wbuf = f, bufio.NewWriterSize(f, 1<<20)
	}

	var offsets []int64
	var edgeBuf []byte
	emit := func(edges []graph.Edge, weights []float32) error {
		edgeBuf = edgeBuf[:0]
		for _, e := range edges {
			edgeBuf = binary.LittleEndian.AppendUint32(edgeBuf, e.Src)
			edgeBuf = binary.LittleEndian.AppendUint32(edgeBuf, e.Dst)
		}
		if _, err := w.Write(edgeBuf); err != nil {
			return err
		}
		if wbuf != nil {
			edgeBuf = edgeBuf[:0]
			for _, wt := range weights {
				edgeBuf = binary.LittleEndian.AppendUint32(edgeBuf, math.Float32bits(wt))
			}
			if _, err := wbuf.Write(edgeBuf); err != nil {
				return err
			}
		}
		return nil
	}

	// GEDG is written first: the stream yields edges immediately but
	// final offsets only at the end. Readers locate sections through the
	// table, so file order is free.
	if err := w.BeginSection(graph.SecGridEdg); err != nil {
		return err
	}
	var err error
	offsets, err = streamGrid(g, a, opt, emit)
	if err != nil {
		return err
	}
	if err := w.EndSection(uint64(len(g.Edges))); err != nil {
		return err
	}

	if err := w.BeginSection(graph.SecGridOff); err != nil {
		return err
	}
	var ob []byte
	for _, o := range offsets {
		ob = binary.LittleEndian.AppendUint64(ob, uint64(o))
	}
	if _, err := w.Write(ob); err != nil {
		return err
	}
	if err := w.EndSection(uint64(len(offsets))); err != nil {
		return err
	}

	if wspool != nil {
		if err := wbuf.Flush(); err != nil {
			return err
		}
		if _, err := wspool.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if err := w.BeginSection(graph.SecGridWgt); err != nil {
			return err
		}
		if _, err := io.Copy(w, bufio.NewReaderSize(wspool, 1<<20)); err != nil {
			return err
		}
		if err := w.EndSection(uint64(len(g.Weights))); err != nil {
			return err
		}
	}
	return nil
}

// StreamBuild builds the same Grid as BuildParallel with transient
// memory bounded by opt.BudgetBytes: the block-major stream is written
// to a temp file and mapped back, so the result's edge storage is
// file-backed (evictable under memory pressure) rather than heap. The
// returned closer releases the mapping and deletes the file; the Grid
// must not be used after closing. Hosts without mmap read the file back
// into heap slices (closer still deletes the file).
func StreamBuild(g *graph.Graph, a Assigner, opt StreamOptions) (*Grid, func() error, error) {
	f, err := os.CreateTemp(opt.TmpDir, "hyve-stream-*.grid")
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Grid, func() error, error) {
		f.Close()
		os.Remove(f.Name())
		return nil, nil, err
	}

	weighted := g.Weights != nil
	bw := bufio.NewWriterSize(f, 1<<20)
	var wbytes int64
	var buf []byte
	// Layout in the temp file: all edges (8 B each), then all weights
	// (4 B each). Weights are buffered per emit chunk after the edge
	// region is known-sized? They are not — so spool weights in memory
	// per chunk is wrong. Use a second file for weights instead.
	var wf *os.File
	var wbw *bufio.Writer
	if weighted {
		wf, err = os.CreateTemp(opt.TmpDir, "hyve-stream-*.gridw")
		if err != nil {
			return fail(err)
		}
		wbw = bufio.NewWriterSize(wf, 1<<20)
	}
	failw := func(err error) (*Grid, func() error, error) {
		if wf != nil {
			wf.Close()
			os.Remove(wf.Name())
		}
		return fail(err)
	}

	emit := func(edges []graph.Edge, weights []float32) error {
		buf = buf[:0]
		for _, e := range edges {
			buf = binary.LittleEndian.AppendUint32(buf, e.Src)
			buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if weighted {
			buf = buf[:0]
			for _, wt := range weights {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(wt))
			}
			wbytes += int64(len(buf))
			if _, err := wbw.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}

	offsets, err := streamGrid(g, a, opt, emit)
	if err != nil {
		return failw(err)
	}
	if err := bw.Flush(); err != nil {
		return failw(err)
	}
	if weighted {
		if err := wbw.Flush(); err != nil {
			return failw(err)
		}
	}

	edges, eclose, err := mapOrRead(f, func(b []byte) ([]graph.Edge, bool) { return graph.EdgesFromBytes(b) }, decodeEdgeBytes)
	if err != nil {
		return failw(err)
	}
	var weights []float32
	wclose := func() error { return nil }
	if weighted {
		weights, wclose, err = mapOrRead(wf, func(b []byte) ([]float32, bool) { return graph.Float32sFromBytes(b) }, decodeWeightBytes)
		if err != nil {
			eclose()
			return failw(err)
		}
	}

	gr, err := GridFromParts(a, offsets, edges, weights)
	if err != nil {
		eclose()
		wclose()
		return failw(err)
	}
	closer := func() error {
		err1 := eclose()
		err2 := wclose()
		if err1 != nil {
			return err1
		}
		return err2
	}
	return gr, closer, nil
}

// mapOrRead turns a just-written temp file into a typed slice: mmap +
// zero-copy reinterpret when the host allows, full read-back otherwise.
// The returned closer unmaps (if mapped), closes, and deletes the file.
func mapOrRead[T any](f *os.File, view func([]byte) ([]T, bool), decode func([]byte) []T) ([]T, func() error, error) {
	cleanup := func() error {
		err := f.Close()
		os.Remove(f.Name())
		return err
	}
	if data, unmap, err := graph.MapFile(f); err == nil {
		if out, ok := view(data); ok {
			return out, func() error {
				err := unmap()
				cleanup()
				return err
			}, nil
		}
		// Mapped but not reinterpretable (alignment/byte order): decode
		// a heap copy and drop the mapping.
		out := decode(data)
		unmap()
		return out, cleanup, nil
	}
	st, err := f.Stat()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	raw := make([]byte, st.Size())
	if _, err := f.ReadAt(raw, 0); err != nil && st.Size() > 0 {
		cleanup()
		return nil, nil, err
	}
	return decode(raw), cleanup, nil
}

func decodeEdgeBytes(b []byte) []graph.Edge {
	out := make([]graph.Edge, len(b)/8)
	for i := range out {
		out[i] = graph.Edge{
			Src: binary.LittleEndian.Uint32(b[i*8:]),
			Dst: binary.LittleEndian.Uint32(b[i*8+4:]),
		}
	}
	return out
}

func decodeWeightBytes(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
