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
//	off  8  u32  flags: bit0 weighted (bits 1 and 2 retired)
//	off 12  u32  sectionCount
//	off 16  u64  nVerts
//	off 24  u64  nEdges
//	off 32  u64  tableOff
//	off 40  u64  reserved (0)
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
//	off 24  u64  count  (element count)
//	off 32  u64  reserved (0)
//
// Sections:
//
//	EDGS  raw    nEdges × {src u32, dst u32}, exact edge-list order
//	WGTS  raw    nEdges × f32 (iff weighted)
//
// The table lives at the end so sections stream out in one pass; the
// header is written last. Flag bits 1 and 2 are retired (they marked
// compressed CSR sections and a stored partition grid): a file with
// either set is refused as carrying an unknown flag, never half-read.
const (
	v2Magic   = 0x32565948 // "HyV2" little-endian
	v2Version = 2

	v2FlagWeighted = 1 << 0
	v2KnownFlags   = v2FlagWeighted

	// V2Align is the section alignment: one page, so every raw section
	// can be reinterpreted in place from a page-aligned mmap.
	V2Align = 4096

	v2HeaderSize  = 96
	v2EntrySize   = 40
	v2MaxSections = 64
)

// Section kinds (four ASCII bytes, little-endian).
const (
	secEdges   uint32 = 0x53474445 // "EDGS"
	secWeights uint32 = 0x53544757 // "WGTS"
)

func secName(kind uint32) string {
	return string([]byte{byte(kind), byte(kind >> 8), byte(kind >> 16), byte(kind >> 24)})
}

type v2Section struct {
	kind      uint32
	off, size uint64
	count     uint64
}

// v2Writer streams sections out and records their table entries; the
// first write error sticks.
type v2Writer struct {
	bw   *bufio.Writer
	off  uint64
	err  error
	secs []v2Section
}

func (w *v2Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(p)
	w.off += uint64(len(p))
}

func (w *v2Writer) pad(n uint64) {
	var zeros [512]byte
	for n > 0 && w.err == nil {
		c := min(n, uint64(len(zeros)))
		w.write(zeros[:c])
		n -= c
	}
}

// section writes n elements as one section at the next page-aligned
// offset; put appends element i's little-endian bytes to b.
func (w *v2Writer) section(kind uint32, n int, put func(b []byte, i int) []byte) {
	if rem := w.off % V2Align; rem != 0 {
		w.pad(V2Align - rem)
	}
	s := v2Section{kind: kind, off: w.off, count: uint64(n)}
	buf := make([]byte, 0, 1<<16)
	for i := 0; i < n; i++ {
		if buf = put(buf, i); len(buf) >= 1<<16-8 {
			w.write(buf)
			buf = buf[:0]
		}
	}
	w.write(buf)
	s.size = w.off - s.off
	w.secs = append(w.secs, s)
}

// WriteV2 serializes g as a v2 container: its edges, and its weights
// when it has them. seed records generator provenance in the header
// (0 = unknown). The header goes last, once the table offset is known,
// so ws must seek; ws is not closed.
func WriteV2(ws io.WriteSeeker, g *Graph, seed uint64) error {
	if g.NumVertices < 0 {
		return fmt.Errorf("graph: v2 writer: negative vertex count %d", g.NumVertices)
	}
	w := &v2Writer{bw: bufio.NewWriterSize(ws, 1<<20)}
	w.pad(v2HeaderSize)
	w.section(secEdges, len(g.Edges), func(b []byte, i int) []byte {
		b = binary.LittleEndian.AppendUint32(b, g.Edges[i].Src)
		return binary.LittleEndian.AppendUint32(b, g.Edges[i].Dst)
	})
	var flags uint32
	if g.Weights != nil {
		flags |= v2FlagWeighted
		w.section(secWeights, len(g.Weights), func(b []byte, i int) []byte {
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(g.Weights[i]))
		})
	}

	if rem := w.off % 8; rem != 0 {
		w.pad(8 - rem)
	}
	tableOff := w.off
	var e [v2EntrySize]byte // enc and the reserved word stay 0
	for _, s := range w.secs {
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.size)
		binary.LittleEndian.PutUint64(e[24:], s.count)
		w.write(e[:])
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err != nil {
		return w.err
	}

	var h [v2HeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], v2Magic)
	binary.LittleEndian.PutUint32(h[4:], v2Version)
	binary.LittleEndian.PutUint32(h[8:], flags)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(w.secs)))
	binary.LittleEndian.PutUint64(h[16:], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(h[24:], uint64(len(g.Edges)))
	binary.LittleEndian.PutUint64(h[32:], tableOff)
	d := ContentDigest(g)
	copy(h[48:80], d[:])
	binary.LittleEndian.PutUint64(h[88:], seed)
	if _, err := ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := ws.Write(h[:])
	return err
}
