package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// v2Header is the decoded fixed header.
type v2Header struct {
	flags      uint32
	nSecs      uint32
	nVerts     uint64
	nEdges     uint64
	tableOff   uint64
	gridP      uint32
	gridKind   uint32
	digest     [32]byte
	blockVerts uint64
	seed       uint64
}

// Container is an opened v2 file: the graph (and optional compressed
// CSR and pre-partitioned grid) views over either a read-only mmap
// (zero-copy) or decoded heap copies (the streaming fallback). Close
// releases the mapping; every slice handed out becomes invalid after
// Close on the zero-copy path, so containers backing long-lived graphs
// (the prepared-dataset path) stay open for the process lifetime.
type Container struct {
	hdr   v2Header
	zero  bool
	unmap func() error

	g    *Graph
	csr  *CompressedCSR
	grid *preparedGrid
}

// Graph returns the materialized graph. When the container carries grid
// sections the graph has them attached, so partition.BuildParallel with
// a matching assigner returns the stored layout without building.
func (c *Container) Graph() *Graph { return c.g }

// CSR returns the compressed adjacency view, or nil if the container
// has no CSR sections.
func (c *Container) CSR() *CompressedCSR { return c.csr }

// Digest returns the header's content digest (graph.ContentDigest of
// the stored graph, verified at write time, re-verifiable with
// hyve-prep -verify).
func (c *Container) Digest() [32]byte { return c.hdr.digest }

// Seed returns the generator-provenance seed (0 = unknown).
func (c *Container) Seed() uint64 { return c.hdr.seed }

// ZeroCopy reports whether the container's slices alias a read-only
// mmap (true) or decoded heap copies (false).
func (c *Container) ZeroCopy() bool { return c.zero }

// GridP returns the stored grid's interval count, 0 if no grid.
func (c *Container) GridP() int {
	if c.grid == nil {
		return 0
	}
	return c.grid.p
}

// GridParts exposes the stored grid payload (offsets/edges/weights and
// geometry) for verifier paths. ok is false without grid sections. The
// slices must be treated as read-only.
func (c *Container) GridParts() (offsets []int64, edges []Edge, weights []float32, p int, contiguous bool, ok bool) {
	if c.grid == nil {
		return nil, nil, nil, 0, false, false
	}
	return c.grid.offsets, c.grid.edges, c.grid.weights, c.grid.p, c.grid.contiguous, true
}

// Close releases the container's resources. On the zero-copy path this
// unmaps the file: the graph and every derived slice must not be used
// afterwards.
func (c *Container) Close() error {
	if c.unmap == nil {
		return nil
	}
	u := c.unmap
	c.unmap = nil
	return u()
}

// v2MaxReasonable caps header-declared element counts: a forged header
// can never make a reader attempt a gigantic allocation that the file
// cannot back.
const v2MaxReasonable = 1 << 34

func parseV2Header(b []byte, fileSize uint64) (v2Header, error) {
	var h v2Header
	if len(b) < v2HeaderSize {
		return h, fmt.Errorf("graph: v2: file too small for header (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != v2Magic {
		return h, fmt.Errorf("graph: v2: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != v2Version {
		return h, fmt.Errorf("graph: v2: unsupported version %d", v)
	}
	h.flags = binary.LittleEndian.Uint32(b[8:])
	if unknown := h.flags &^ uint32(v2KnownFlags); unknown != 0 {
		return h, fmt.Errorf("graph: v2: unknown flag bits %#x", unknown)
	}
	h.nSecs = binary.LittleEndian.Uint32(b[12:])
	h.nVerts = binary.LittleEndian.Uint64(b[16:])
	h.nEdges = binary.LittleEndian.Uint64(b[24:])
	h.tableOff = binary.LittleEndian.Uint64(b[32:])
	h.gridP = binary.LittleEndian.Uint32(b[40:])
	h.gridKind = binary.LittleEndian.Uint32(b[44:])
	copy(h.digest[:], b[48:80])
	h.blockVerts = binary.LittleEndian.Uint64(b[80:])
	h.seed = binary.LittleEndian.Uint64(b[88:])

	if h.nVerts > v2MaxReasonable || h.nEdges > v2MaxReasonable {
		return h, fmt.Errorf("graph: v2: implausible sizes |V|=%d |E|=%d", h.nVerts, h.nEdges)
	}
	if h.nSecs > v2MaxSections {
		return h, fmt.Errorf("graph: v2: %d sections exceeds the format cap", h.nSecs)
	}
	if h.tableOff%8 != 0 || h.tableOff < v2HeaderSize ||
		h.tableOff+uint64(h.nSecs)*v2EntrySize > fileSize {
		return h, fmt.Errorf("graph: v2: section table [%d,+%d×%d) outside file of %d bytes",
			h.tableOff, h.nSecs, v2EntrySize, fileSize)
	}
	if h.flags&v2FlagCSR != 0 && (h.blockVerts == 0 || h.blockVerts > v2MaxReasonable) {
		return h, fmt.Errorf("graph: v2: implausible CSR block width %d", h.blockVerts)
	}
	if h.flags&v2FlagGrid != 0 {
		if h.gridP == 0 || uint64(h.gridP)*uint64(h.gridP) > v2MaxReasonable {
			return h, fmt.Errorf("graph: v2: implausible grid P %d", h.gridP)
		}
		if h.gridKind != v2GridHashed && h.gridKind != v2GridContiguous {
			return h, fmt.Errorf("graph: v2: unknown grid kind %d", h.gridKind)
		}
	} else if h.gridP != 0 {
		return h, fmt.Errorf("graph: v2: grid P %d without grid flag", h.gridP)
	}
	return h, nil
}

// v2ElemSize maps raw section kinds to their element width; 0 means the
// section is byte-addressed (varint streams).
func v2ElemSize(kind uint32) uint64 {
	switch kind {
	case SecEdges, SecGridEdg, SecCSROff, SecCSRIdx, SecGridOff:
		return 8
	case SecWeights, SecGridWgt:
		return 4
	}
	return 0
}

// parseV2Table decodes and cross-checks the section table: every
// section in bounds, page-aligned, element counts consistent with byte
// sizes, no two non-empty sections (or the header/table) overlapping,
// and the exact section set implied by the header flags present.
func parseV2Table(tb []byte, h v2Header, fileSize uint64) (map[uint32]v2Section, error) {
	secs := make(map[uint32]v2Section, h.nSecs)
	type span struct{ lo, hi uint64 }
	spans := []span{{0, v2HeaderSize}, {h.tableOff, h.tableOff + uint64(h.nSecs)*v2EntrySize}}
	for i := uint32(0); i < h.nSecs; i++ {
		e := tb[i*v2EntrySize:]
		s := v2Section{
			kind:  binary.LittleEndian.Uint32(e[0:]),
			enc:   binary.LittleEndian.Uint32(e[4:]),
			off:   binary.LittleEndian.Uint64(e[8:]),
			size:  binary.LittleEndian.Uint64(e[16:]),
			count: binary.LittleEndian.Uint64(e[24:]),
		}
		name := secName(s.kind)
		if _, dup := secs[s.kind]; dup {
			return nil, fmt.Errorf("graph: v2: duplicate section %s", name)
		}
		if s.off%V2Align != 0 {
			return nil, fmt.Errorf("graph: v2: section %s at misaligned offset %d", name, s.off)
		}
		if s.off < v2HeaderSize || s.size > fileSize || s.off > fileSize-s.size {
			return nil, fmt.Errorf("graph: v2: section %s [%d,+%d) outside file of %d bytes",
				name, s.off, s.size, fileSize)
		}
		wantEnc := EncRaw
		if s.kind == SecCSRTgt {
			wantEnc = EncVarint
		}
		if s.enc != wantEnc {
			return nil, fmt.Errorf("graph: v2: section %s has encoding %d, want %d", name, s.enc, wantEnc)
		}
		if es := v2ElemSize(s.kind); es != 0 && s.count*es != s.size {
			return nil, fmt.Errorf("graph: v2: section %s declares %d elements in %d bytes", name, s.count, s.size)
		}
		secs[s.kind] = s
		// An empty section (an edgeless graph's edges) occupies no bytes,
		// so it cannot overlap anything.
		if s.size > 0 {
			spans = append(spans, span{s.off, s.off + s.size})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return nil, fmt.Errorf("graph: v2: overlapping regions [%d,%d) and [%d,%d)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}

	// The header flags and the section set must agree exactly.
	want := map[uint32]uint64{SecEdges: h.nEdges}
	if h.flags&v2FlagWeighted != 0 {
		want[SecWeights] = h.nEdges
	}
	if h.flags&v2FlagCSR != 0 {
		nBlocks := (h.nVerts + h.blockVerts - 1) / h.blockVerts
		want[SecCSROff] = h.nVerts + 1
		want[SecCSRIdx] = nBlocks + 1
		want[SecCSRTgt] = h.nEdges
	}
	if h.flags&v2FlagGrid != 0 {
		want[SecGridOff] = uint64(h.gridP)*uint64(h.gridP) + 1
		want[SecGridEdg] = h.nEdges
		if h.flags&v2FlagWeighted != 0 {
			want[SecGridWgt] = h.nEdges
		}
	}
	if len(secs) != len(want) {
		return nil, fmt.Errorf("graph: v2: %d sections, header flags imply %d", len(secs), len(want))
	}
	for kind, count := range want {
		s, ok := secs[kind]
		if !ok {
			return nil, fmt.Errorf("graph: v2: header flags promise section %s, table has none", secName(kind))
		}
		if s.count != count {
			return nil, fmt.Errorf("graph: v2: section %s has %d elements, header implies %d",
				secName(kind), s.count, count)
		}
	}
	return secs, nil
}

// sectionBytes fetches a section's raw bytes: an alias into data when
// the whole file is in memory (mmap path), or a bounded chunked read
// from ra (streaming path).
type sectionBytes func(s v2Section) ([]byte, error)

// buildContainer assembles the typed views shared by both readers. With
// zeroCopy, raw sections are reinterpreted in place when alignment and
// byte order allow; otherwise (and always on the streaming path) they
// are decoded into exact-size heap slices. All semantic validation —
// edge ranges, offset monotonicity, varint stream integrity, weight
// finiteness — runs here, once, regardless of path.
func buildContainer(h v2Header, secs map[uint32]v2Section, get sectionBytes, zeroCopy bool) (*Container, error) {
	c := &Container{hdr: h, zero: zeroCopy}

	edgeBytes, err := get(secs[SecEdges])
	if err != nil {
		return nil, err
	}
	edges, ok := EdgesFromBytes(edgeBytes)
	if !ok || !zeroCopy {
		edges = decodeEdges(edgeBytes)
		c.zero = false
	}
	g := &Graph{NumVertices: int(h.nVerts), Edges: edges}

	if h.flags&v2FlagWeighted != 0 {
		wb, err := get(secs[SecWeights])
		if err != nil {
			return nil, err
		}
		weights, ok := Float32sFromBytes(wb)
		if !ok || !zeroCopy {
			weights = decodeFloat32s(wb)
			c.zero = false
		}
		for i, w := range weights {
			if f := float64(w); math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("graph: v2: weight %d is non-finite (%v)", i, w)
			}
		}
		g.Weights = weights
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c.g = g

	if h.flags&v2FlagCSR != 0 {
		offB, err := get(secs[SecCSROff])
		if err != nil {
			return nil, err
		}
		tidxB, err := get(secs[SecCSRIdx])
		if err != nil {
			return nil, err
		}
		tgts, err := get(secs[SecCSRTgt])
		if err != nil {
			return nil, err
		}
		offsets, ok := Uint64sFromBytes(offB)
		if !ok || !zeroCopy {
			offsets = decodeUint64s(offB)
			c.zero = false
		}
		tidx, ok := Uint64sFromBytes(tidxB)
		if !ok || !zeroCopy {
			tidx = decodeUint64s(tidxB)
			c.zero = false
		}
		if err := checkMonotone("OFFS", offsets, h.nEdges); err != nil {
			return nil, err
		}
		if err := checkMonotone("TIDX", tidx, uint64(len(tgts))); err != nil {
			return nil, err
		}
		if last := tidx[len(tidx)-1]; last != uint64(len(tgts)) {
			return nil, fmt.Errorf("graph: v2: TIDX covers %d of %d TGTS bytes", last, len(tgts))
		}
		csr := &CompressedCSR{
			numVerts:   int(h.nVerts),
			blockVerts: int(h.blockVerts),
			offsets:    offsets,
			tidx:       tidx,
			tgts:       tgts,
		}
		if err := csr.Validate(); err != nil {
			return nil, err
		}
		c.csr = csr
	}

	if h.flags&v2FlagGrid != 0 {
		goffB, err := get(secs[SecGridOff])
		if err != nil {
			return nil, err
		}
		gedgB, err := get(secs[SecGridEdg])
		if err != nil {
			return nil, err
		}
		goff, ok := Int64sFromBytes(goffB)
		if !ok || !zeroCopy {
			goff = decodeInt64s(goffB)
			c.zero = false
		}
		gedges, ok := EdgesFromBytes(gedgB)
		if !ok || !zeroCopy {
			gedges = decodeEdges(gedgB)
			c.zero = false
		}
		for i := 1; i < len(goff); i++ {
			if goff[i] < goff[i-1] {
				return nil, fmt.Errorf("graph: v2: GOFF not monotone at block %d", i)
			}
		}
		if goff[0] != 0 || goff[len(goff)-1] != int64(h.nEdges) {
			return nil, fmt.Errorf("graph: v2: GOFF spans [%d,%d], want [0,%d]",
				goff[0], goff[len(goff)-1], h.nEdges)
		}
		for i, e := range gedges {
			if uint64(e.Src) >= h.nVerts || uint64(e.Dst) >= h.nVerts {
				return nil, fmt.Errorf("graph: v2: grid edge %d (%d->%d) out of range [0,%d)",
					i, e.Src, e.Dst, h.nVerts)
			}
		}
		pg := &preparedGrid{
			p:          int(h.gridP),
			contiguous: h.gridKind == v2GridContiguous,
			offsets:    goff,
			edges:      gedges,
		}
		if h.flags&v2FlagWeighted != 0 {
			gwB, err := get(secs[SecGridWgt])
			if err != nil {
				return nil, err
			}
			gw, ok := Float32sFromBytes(gwB)
			if !ok || !zeroCopy {
				gw = decodeFloat32s(gwB)
				c.zero = false
			}
			for i, w := range gw {
				if f := float64(w); math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("graph: v2: grid weight %d is non-finite (%v)", i, w)
				}
			}
			pg.weights = gw
		}
		c.grid = pg
		g.prep = pg
	}
	return c, nil
}

func checkMonotone(name string, xs []uint64, cap uint64) error {
	if len(xs) == 0 || xs[0] != 0 {
		return fmt.Errorf("graph: v2: %s must start at 0", name)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return fmt.Errorf("graph: v2: %s not monotone at %d", name, i)
		}
	}
	if xs[len(xs)-1] > cap {
		return fmt.Errorf("graph: v2: %s ends at %d, beyond %d", name, xs[len(xs)-1], cap)
	}
	if name == "OFFS" && xs[len(xs)-1] != cap {
		return fmt.Errorf("graph: v2: %s ends at %d, want exactly %d", name, xs[len(xs)-1], cap)
	}
	return nil
}

func decodeEdges(b []byte) []Edge {
	out := make([]Edge, len(b)/8)
	for i := range out {
		out[i] = Edge{
			Src: binary.LittleEndian.Uint32(b[i*8:]),
			Dst: binary.LittleEndian.Uint32(b[i*8+4:]),
		}
	}
	return out
}

func decodeFloat32s(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func decodeUint64s(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// parseV2Bytes builds a container over a whole file already in memory
// (the mmap path; also the fuzz harness's direct entry).
func parseV2Bytes(data []byte, zeroCopy bool) (*Container, error) {
	h, err := parseV2Header(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	secs, err := parseV2Table(data[h.tableOff:h.tableOff+uint64(h.nSecs)*v2EntrySize], h, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	get := func(s v2Section) ([]byte, error) { return data[s.off : s.off+s.size], nil }
	return buildContainer(h, secs, get, zeroCopy)
}

// ReadV2 is the pure-Go streaming reader: it decodes a v2 container
// from any io.ReaderAt without mmap or unsafe reinterpretation, section
// by section, with transient buffers bounded per section. The result is
// semantically identical to OpenV2's zero-copy container (pinned by the
// v2-load-identity conformance invariant and FuzzReadV2's differential
// check); only the backing memory differs.
func ReadV2(ra io.ReaderAt, size int64) (*Container, error) {
	if size < 0 {
		return nil, fmt.Errorf("graph: v2: negative size %d", size)
	}
	var hb [v2HeaderSize]byte
	if _, err := ra.ReadAt(hb[:], 0); err != nil {
		return nil, fmt.Errorf("graph: v2: reading header: %w", err)
	}
	h, err := parseV2Header(hb[:], uint64(size))
	if err != nil {
		return nil, err
	}
	tb := make([]byte, uint64(h.nSecs)*v2EntrySize)
	if _, err := ra.ReadAt(tb, int64(h.tableOff)); err != nil {
		return nil, fmt.Errorf("graph: v2: reading section table: %w", err)
	}
	secs, err := parseV2Table(tb, h, uint64(size))
	if err != nil {
		return nil, err
	}
	get := func(s v2Section) ([]byte, error) {
		buf := make([]byte, s.size)
		// Chunked reads so a short file fails with a clear offset, and
		// no single read call has to be atomic over gigabytes.
		const chunk = 1 << 20
		for at := uint64(0); at < s.size; at += chunk {
			end := min(at+chunk, s.size)
			if _, err := ra.ReadAt(buf[at:end], int64(s.off+at)); err != nil {
				return nil, fmt.Errorf("graph: v2: reading section %s at %d: %w", secName(s.kind), at, err)
			}
		}
		return buf, nil
	}
	return buildContainer(h, secs, get, false)
}

// OpenV2 opens a v2 container, preferring the zero-copy path: the file
// is mmapped read-only and raw sections are reinterpreted in place, so
// load cost is validation scans plus page faults — no decode, no copy
// of the edge array. Hosts without mmap (or with incompatible byte
// order/alignment) fall back to ReadV2 transparently.
func OpenV2(path string) (*Container, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if data, unmap, merr := MapFile(f); merr == nil {
		c, err := parseV2Bytes(data, true)
		if err != nil {
			_ = unmap()
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		c.unmap = unmap
		f.Close()
		return c, nil
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	c, err := ReadV2(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
