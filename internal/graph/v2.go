package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Container format "hyve/graph/v2": the page-aligned, section-table
// storage layer behind hyve-prep and the prepared-dataset load path
// (DESIGN.md §4.9). The goals, in order: zero decode on the hot path
// (raw sections are reinterpreted straight out of an mmap), bounded
// memory (a streaming fallback reader decodes section by section), and
// digest identity (the edge list is stored raw, in exact generation
// order, so graph.ContentDigest of a loaded graph equals that of the
// generated one bit for bit).
//
// Layout (all integers little-endian):
//
//	header    96 bytes at offset 0 (see below)
//	sections  each starting at a 4096-byte-aligned offset
//	table     sectionCount × 40-byte entries at tableOff (8-aligned)
//
// Header:
//
//	off  0  u32  magic 'H','y','V','2'
//	off  4  u32  version (2)
//	off  8  u32  flags: bit0 weighted, bit2 grid present (bit1 retired)
//	off 12  u32  sectionCount
//	off 16  u64  nVerts
//	off 24  u64  nEdges
//	off 32  u64  tableOff
//	off 40  u32  gridP        (0 unless grid present)
//	off 44  u32  gridKind     (0 hashed, 1 contiguous)
//	off 48  [32] contentDigest (graph.ContentDigest of the stored graph)
//	off 80  u64  reserved (0)
//	off 88  u64  seed          (generator provenance, 0 = unknown)
//
// Section table entry:
//
//	off  0  u32  kind   (four ASCII bytes, below)
//	off  4  u32  enc    (0: raw, the only encoding)
//	off  8  u64  offset (4096-aligned file offset)
//	off 16  u64  bytes
//	off 24  u64  count  (element count: edges, weights, offsets, …)
//	off 32  u64  reserved (0)
//
// Sections:
//
//	EDGS  raw    nEdges × {src u32, dst u32}, exact edge-list order
//	WGTS  raw    nEdges × f32 (iff weighted)
//	GOFF  raw    (gridP²+1) × u64 grid block offsets
//	GEDG  raw    nEdges × {src u32, dst u32} in grid block-major order
//	GWGT  raw    nEdges × f32 grid-ordered weights (iff weighted grid)
//
// The table lives at the end so sections stream out in one pass; the
// header is patched on Close. Flag bit 1 is retired (it marked
// compressed CSR sections): a file with it set is refused as carrying
// an unknown flag, never half-read.
const (
	v2Magic   = 0x32565948 // "HyV2" little-endian
	v2Version = 2

	v2FlagWeighted = 1 << 0
	v2FlagGrid     = 1 << 2
	v2KnownFlags   = v2FlagWeighted | v2FlagGrid

	// V2Align is the section alignment: one page, so every raw section
	// can be reinterpreted in place from a page-aligned mmap.
	V2Align = 4096

	v2HeaderSize  = 96
	v2EntrySize   = 40
	v2MaxSections = 64

	v2GridHashed     = 0
	v2GridContiguous = 1
)

// Section kinds (four ASCII bytes, little-endian).
const (
	SecEdges   uint32 = 0x53474445 // "EDGS"
	SecWeights uint32 = 0x53544757 // "WGTS"
	SecGridOff uint32 = 0x46464F47 // "GOFF"
	SecGridEdg uint32 = 0x47444547 // "GEDG"
	SecGridWgt uint32 = 0x54475747 // "GWGT"
)

func secName(kind uint32) string {
	return string([]byte{byte(kind), byte(kind >> 8), byte(kind >> 16), byte(kind >> 24)})
}

type v2Section struct {
	kind      uint32
	off, size uint64
	count     uint64
}

// V2Writer streams a v2 container: sections are begun, written, and
// ended in order; Close writes the section table and patches the header.
// The two-layer API (raw sections here, graph semantics in WriteV2Into)
// exists so the partition package can append grid sections to a
// container the graph package started, without an import cycle.
type V2Writer struct {
	ws  io.WriteSeeker
	bw  *bufio.Writer
	off uint64
	err error

	secs     []v2Section
	open     bool
	nVerts   uint64
	nEdges   uint64
	flags    uint32
	gridP    uint32
	gridKind uint32
	digest   [32]byte
	seed     uint64
	closed   bool
}

// NewV2Writer starts a container for a graph with the given shape. The
// header is written on Close; until then the region before the first
// section is zero.
func NewV2Writer(ws io.WriteSeeker, numVertices, numEdges int) (*V2Writer, error) {
	if numVertices < 0 || numEdges < 0 {
		return nil, fmt.Errorf("graph: v2 writer: negative shape %d/%d", numVertices, numEdges)
	}
	w := &V2Writer{
		ws:     ws,
		bw:     bufio.NewWriterSize(ws, 1<<20),
		nVerts: uint64(numVertices),
		nEdges: uint64(numEdges),
	}
	// Reserve the header region; it is rewritten with real contents on
	// Close, after every section offset is known.
	w.pad(v2HeaderSize)
	return w, w.err
}

// SetDigest records the graph's content digest in the header.
func (w *V2Writer) SetDigest(d [32]byte) { w.digest = d }

// SetSeed records generator provenance (0 = unknown/none).
func (w *V2Writer) SetSeed(seed uint64) { w.seed = seed }

// SetGrid records the grid geometry for GOFF/GEDG/GWGT sections.
func (w *V2Writer) SetGrid(p int, contiguous bool) {
	w.gridP = uint32(p)
	w.gridKind = v2GridHashed
	if contiguous {
		w.gridKind = v2GridContiguous
	}
}

func (w *V2Writer) pad(n uint64) {
	var zeros [512]byte
	for n > 0 && w.err == nil {
		c := min(n, uint64(len(zeros)))
		w.write(zeros[:c])
		n -= c
	}
}

func (w *V2Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(p)
	w.off += uint64(len(p))
}

// BeginSection starts a new section of the given kind at the next
// page-aligned offset. Sections cannot nest, and each kind may appear
// at most once.
func (w *V2Writer) BeginSection(kind uint32) error {
	if w.err != nil {
		return w.err
	}
	if w.open {
		return fmt.Errorf("graph: v2 writer: BeginSection(%s) with a section still open", secName(kind))
	}
	if len(w.secs) >= v2MaxSections {
		return fmt.Errorf("graph: v2 writer: too many sections")
	}
	for _, s := range w.secs {
		if s.kind == kind {
			return fmt.Errorf("graph: v2 writer: duplicate section %s", secName(kind))
		}
	}
	if rem := w.off % V2Align; rem != 0 {
		w.pad(V2Align - rem)
	}
	w.secs = append(w.secs, v2Section{kind: kind, off: w.off})
	w.open = true
	return w.err
}

// Write appends bytes to the open section.
func (w *V2Writer) Write(p []byte) (int, error) {
	if !w.open && w.err == nil {
		return 0, fmt.Errorf("graph: v2 writer: Write outside a section")
	}
	w.write(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// EndSection closes the open section, recording its element count and
// raising the matching header flag.
func (w *V2Writer) EndSection(count uint64) error {
	if w.err != nil {
		return w.err
	}
	if !w.open {
		return fmt.Errorf("graph: v2 writer: EndSection without a section")
	}
	s := &w.secs[len(w.secs)-1]
	s.size = w.off - s.off
	s.count = count
	w.open = false
	switch s.kind {
	case SecWeights:
		w.flags |= v2FlagWeighted
	case SecGridOff:
		w.flags |= v2FlagGrid
	}
	return nil
}

// Close writes the section table, patches the header, and flushes. It
// does not close the underlying file.
func (w *V2Writer) Close() error {
	if w.closed {
		return fmt.Errorf("graph: v2 writer: double Close")
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.open {
		return fmt.Errorf("graph: v2 writer: Close with a section still open")
	}
	if rem := w.off % 8; rem != 0 {
		w.pad(8 - rem)
	}
	tableOff := w.off
	var e [v2EntrySize]byte
	for _, s := range w.secs {
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint32(e[4:], 0)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.size)
		binary.LittleEndian.PutUint64(e[24:], s.count)
		binary.LittleEndian.PutUint64(e[32:], 0)
		w.write(e[:])
	}
	if w.err != nil {
		return w.err
	}
	if w.err = w.bw.Flush(); w.err != nil {
		return w.err
	}
	if _, w.err = w.ws.Seek(0, io.SeekStart); w.err != nil {
		return w.err
	}
	var h [v2HeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], v2Magic)
	binary.LittleEndian.PutUint32(h[4:], v2Version)
	binary.LittleEndian.PutUint32(h[8:], w.flags)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(w.secs)))
	binary.LittleEndian.PutUint64(h[16:], w.nVerts)
	binary.LittleEndian.PutUint64(h[24:], w.nEdges)
	binary.LittleEndian.PutUint64(h[32:], tableOff)
	binary.LittleEndian.PutUint32(h[40:], w.gridP)
	binary.LittleEndian.PutUint32(h[44:], w.gridKind)
	copy(h[48:80], w.digest[:])
	binary.LittleEndian.PutUint64(h[88:], w.seed)
	if _, w.err = w.ws.Write(h[:]); w.err != nil {
		return w.err
	}
	return nil
}

// WriteV2 serializes g as a complete v2 container (no grid sections).
// seed records generator provenance in the header (0 = unknown).
func WriteV2(ws io.WriteSeeker, g *Graph, seed uint64) error {
	w, err := NewV2Writer(ws, g.NumVertices, len(g.Edges))
	if err != nil {
		return err
	}
	if err := WriteV2Into(w, g, seed); err != nil {
		return err
	}
	return w.Close()
}

// WriteV2Into writes g's edge and weight sections into an open writer,
// leaving it open so the caller can append grid sections
// (partition.StreamGridInto) before Close. seed is as for WriteV2.
func WriteV2Into(w *V2Writer, g *Graph, seed uint64) error {
	if uint64(g.NumVertices) != w.nVerts || uint64(len(g.Edges)) != w.nEdges {
		return fmt.Errorf("graph: v2 writer sized for |V|=%d |E|=%d, graph has %d/%d",
			w.nVerts, w.nEdges, g.NumVertices, len(g.Edges))
	}
	w.SetDigest(ContentDigest(g))
	w.SetSeed(seed)

	if err := w.BeginSection(SecEdges); err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<16)
	for _, e := range g.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst)
		if len(buf) >= 1<<16-8 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if err := w.EndSection(uint64(len(g.Edges))); err != nil {
		return err
	}

	if g.Weights != nil {
		if err := w.BeginSection(SecWeights); err != nil {
			return err
		}
		buf = buf[:0]
		for _, f := range g.Weights {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
			if len(buf) >= 1<<16-4 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if err := w.EndSection(uint64(len(g.Weights))); err != nil {
			return err
		}
	}
	return nil
}
