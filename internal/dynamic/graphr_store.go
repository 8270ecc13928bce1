package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// GraphRStore is the comparison target of Fig. 20: the same dynamic
// request mix applied to GraphR's adjacency-matrix block layout. A block
// is an 8×8 dense cell array destined for a compute crossbar; changing
// any edge means locating the block in the sparse block directory and
// *rewriting the whole block* (the crossbar holds an adjacency matrix,
// not an append-friendly list — §7.4.2 applies "the same strategy" but
// the representation forces per-change block reprogramming).
type GraphRStore struct {
	dim         int
	blocks      map[uint64]*denseBlock
	numVertices int
	liveEdges   int64
	invalid     map[graph.VertexID]bool
	// Rewrites counts whole-block reprogramming passes.
	Rewrites int64
}

type denseBlock struct {
	cells [64]float32
	count int
}

// NewGraphRStore lays out g in dim×dim dense blocks. The initial load
// is preprocessing, not online traffic: it sorts the edges' cell keys
// once (partition.SortBlockKeys) and fills each block from its run of
// keys with one allocation and one directory insert, reprogramming
// nothing, so Rewrites starts at 0. The store equals one grown from an
// empty graph by AddEdge on every edge in order, apart from Rewrites,
// and it refuses the same first out-of-range edge.
func NewGraphRStore(g *graph.Graph, dim int) (*GraphRStore, error) {
	if dim <= 0 || dim*dim > 64 {
		return nil, fmt.Errorf("dynamic: block dim %d out of range", dim)
	}
	s := &GraphRStore{
		dim:         dim,
		blocks:      make(map[uint64]*denseBlock, g.NumEdges()/2+1),
		numVertices: g.NumVertices,
		liveEdges:   int64(len(g.Edges)),
		invalid:     map[graph.VertexID]bool{},
	}
	for _, e := range g.Edges {
		if int(e.Src) >= s.numVertices || int(e.Dst) >= s.numVertices { // AddEdge's refusal
			return nil, fmt.Errorf("dynamic: edge %v outside vertex space [0,%d)", e, s.numVertices)
		}
	}
	k := partition.SortBlockKeys(g.Edges, dim, true)
	for lo, hi := 0, 0; lo < len(k.Keys); lo = hi {
		hi = k.BlockEnd(lo)
		b := &denseBlock{}
		for _, key := range k.Keys[lo:hi] {
			i, j := k.Cell(key)
			cell := int(i)*dim + int(j)
			if b.cells[cell] == 0 {
				b.count++
			}
			b.cells[cell]++
		}
		bx, by := k.Block(k.Keys[lo])
		s.blocks[uint64(bx)<<32|uint64(by)] = b
	}
	return s, nil
}

func (s *GraphRStore) key(e graph.Edge) (uint64, int) {
	bx := uint64(e.Src) / uint64(s.dim)
	by := uint64(e.Dst) / uint64(s.dim)
	cell := int(e.Src)%s.dim*s.dim + int(e.Dst)%s.dim
	return bx<<32 | by, cell
}

// BlockCells is the number of cells one rewrite programs: every cell of
// a dim×dim block.
func (s *GraphRStore) BlockCells() int { return s.dim * s.dim }

// reprogram counts one rewrite of the block's adjacency matrix: every
// cell of every bit-slice gang is programmed (GraphR splits 16-bit
// values over four 4-bit crossbar copies, so a change rewrites all
// four). Fig. 20 prices the count on the crossbar model.
func (s *GraphRStore) reprogram() {
	s.Rewrites++
}

// AddEdge implements Store. Endpoints outside the current vertex space
// are rejected, matching HyVEStore: silently growing the space here
// used to let the two Fig. 20 stores diverge on malformed streams.
func (s *GraphRStore) AddEdge(e graph.Edge) (int, error) {
	if int(e.Src) >= s.numVertices || int(e.Dst) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: edge %v outside vertex space [0,%d)", e, s.numVertices)
	}
	k, cell := s.key(e)
	b := s.blocks[k]
	if b == nil {
		b = &denseBlock{}
		s.blocks[k] = b
	}
	if b.cells[cell] == 0 {
		b.count++
	}
	b.cells[cell]++
	s.reprogram()
	s.liveEdges++
	return 1, nil
}

// DeleteEdge implements Store.
func (s *GraphRStore) DeleteEdge(e graph.Edge) (int, error) {
	k, cell := s.key(e)
	b := s.blocks[k]
	if b == nil || b.cells[cell] == 0 {
		return 0, nil
	}
	b.cells[cell]--
	if b.cells[cell] == 0 {
		b.count--
		if b.count == 0 {
			delete(s.blocks, k)
		}
	}
	if b.count > 0 {
		s.reprogram()
	}
	s.liveEdges--
	return 1, nil
}

// AddVertex implements Store.
func (s *GraphRStore) AddVertex() (graph.VertexID, int, error) {
	id := graph.VertexID(s.numVertices)
	s.numVertices++
	return id, 1, nil
}

// DeleteVertex implements Store.
func (s *GraphRStore) DeleteVertex(v graph.VertexID) (int, error) {
	if int(v) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: vertex %d out of range", v)
	}
	s.invalid[v] = true
	return 1, nil
}

// NumEdges implements Store.
func (s *GraphRStore) NumEdges() int64 { return s.liveEdges }
