package partition

import (
	"fmt"

	"repro/internal/graph"
)

// CheckAssigner verifies that a forms a true partition of its vertex
// universe: interval lengths sum to the vertex count, every vertex maps
// to an in-range (interval, index) pair, and VertexAt inverts that pair.
func CheckAssigner(a Assigner) error {
	p, nv := a.P(), a.NumVertices()
	if p <= 0 || nv <= 0 {
		return fmt.Errorf("partition: degenerate assigner (P=%d, V=%d)", p, nv)
	}
	total := 0
	for i := 0; i < p; i++ {
		l := a.IntervalLen(i)
		if l < 0 {
			return fmt.Errorf("partition: interval %d has negative length %d", i, l)
		}
		total += l
	}
	if total != nv {
		return fmt.Errorf("partition: interval lengths sum to %d, want %d vertices", total, nv)
	}
	for v := 0; v < nv; v++ {
		id := graph.VertexID(v)
		iv := a.IntervalOf(id)
		if iv < 0 || iv >= p {
			return fmt.Errorf("partition: vertex %d maps to interval %d outside [0,%d)", v, iv, p)
		}
		idx := a.IndexWithin(id)
		if idx < 0 || idx >= a.IntervalLen(iv) {
			return fmt.Errorf("partition: vertex %d has index %d outside interval %d (len %d)",
				v, idx, iv, a.IntervalLen(iv))
		}
		if back := a.VertexAt(iv, idx); back != id {
			return fmt.Errorf("partition: VertexAt(%d,%d) = %d, want %d", iv, idx, back, v)
		}
	}
	return nil
}

// CheckPartition verifies that the grid is an exact re-grouping of g's
// edges: block offsets tile the flattened array contiguously, every edge
// sits in the block its endpoints' intervals select, and the grid's edge
// multiset equals the graph's (no edge lost, duplicated, or invented).
func (gr *Grid) CheckPartition(g *graph.Graph) error {
	if gr.NumEdges() != len(g.Edges) {
		return fmt.Errorf("partition: grid holds %d edges, graph has %d", gr.NumEdges(), len(g.Edges))
	}
	a := gr.Assigner
	p := gr.P()
	var at int64
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			if off := gr.BlockOffset(x, y); off != at {
				return fmt.Errorf("partition: block (%d,%d) starts at %d, want contiguous %d", x, y, off, at)
			}
			blk := gr.Block(x, y)
			if len(blk) != gr.BlockLen(x, y) {
				return fmt.Errorf("partition: block (%d,%d) slice/len mismatch", x, y)
			}
			for _, e := range blk {
				if a.IntervalOf(e.Src) != x || a.IntervalOf(e.Dst) != y {
					return fmt.Errorf("partition: edge %d->%d stored in block (%d,%d), belongs in (%d,%d)",
						e.Src, e.Dst, x, y, a.IntervalOf(e.Src), a.IntervalOf(e.Dst))
				}
			}
			at += int64(len(blk))
		}
	}
	counts := make(map[graph.Edge]int, len(g.Edges))
	for _, e := range g.Edges {
		counts[e]++
	}
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			for _, e := range gr.Block(x, y) {
				counts[e]--
				if counts[e] == 0 {
					delete(counts, e)
				}
			}
		}
	}
	if len(counts) != 0 {
		for e, c := range counts {
			return fmt.Errorf("partition: edge %d->%d multiplicity off by %+d between graph and grid", e.Src, e.Dst, -c)
		}
	}
	return nil
}

// CheckOffsets verifies that offsets, a count pass's output
// (BlockOffsets), delimit exactly the grid's blocks.
func (gr *Grid) CheckOffsets(offsets []int64) error {
	if len(offsets) != len(gr.offsets) {
		return fmt.Errorf("partition: %d offsets for a grid of %d blocks", len(offsets), len(gr.offsets)-1)
	}
	for b, off := range offsets {
		if off != gr.offsets[b] {
			return fmt.Errorf("partition: count pass puts block boundary %d at %d, the grid at %d", b, off, gr.offsets[b])
		}
	}
	return nil
}
