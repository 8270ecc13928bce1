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
	dim int
	// base holds the initial graph's cell keys in block order
	// (partition.SortBlockKeys). A block's dense cells are filled from
	// its run of keys the first time a request touches the block, and
	// kept in blocks, by bx<<32 | by, from then on, emptied blocks
	// included: an entry shadows the block's run in base.
	base        *partition.BlockKeys
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
// once (partition.SortBlockKeys) and reprograms nothing, so Rewrites
// starts at 0. The store behaves as one grown from an empty graph by
// AddEdge on every edge in order, apart from Rewrites, and it refuses
// the same first out-of-range edge.
func NewGraphRStore(g *graph.Graph, dim int) (*GraphRStore, error) {
	if dim <= 0 || dim*dim > 64 {
		return nil, fmt.Errorf("dynamic: block dim %d out of range", dim)
	}
	for _, e := range g.Edges {
		if err := outsideSpace(e, g.NumVertices); err != nil {
			return nil, err
		}
	}
	return &GraphRStore{
		dim:         dim,
		base:        partition.SortBlockKeys(g.Edges, dim, true),
		blocks:      map[uint64]*denseBlock{},
		numVertices: g.NumVertices,
		liveEdges:   int64(len(g.Edges)),
		invalid:     map[graph.VertexID]bool{},
	}, nil
}

// block returns e's block and e's cell in it. A block no request has
// touched is filled from the base and kept; one that holds no edge is
// made only when add is set, and is nil otherwise.
func (s *GraphRStore) block(e graph.Edge, add bool) (*denseBlock, int) {
	d := uint32(s.dim)
	bx, by := e.Src/d, e.Dst/d
	cell := int(e.Src%d*d + e.Dst%d)
	k := uint64(bx)<<32 | uint64(by)
	b := s.blocks[k]
	if b == nil {
		if b = s.fill(bx, by); b == nil {
			if !add {
				return nil, cell
			}
			b = &denseBlock{}
		}
		s.blocks[k] = b
	}
	return b, cell
}

// fill returns block (bx, by) as the initial graph holds it, from its
// run of base keys, or nil if no edge of the graph falls in it.
func (s *GraphRStore) fill(bx, by uint32) *denseBlock {
	lo, hi := s.base.Run(bx, by)
	if lo == hi {
		return nil
	}
	b := &denseBlock{}
	d := uint32(s.dim)
	for _, key := range s.base.Keys[lo:hi] {
		i, j := s.base.Cell(key)
		b.inc(int(i*d + j))
	}
	return b
}

// inc adds one edge to a cell.
func (b *denseBlock) inc(cell int) {
	if b.cells[cell] == 0 {
		b.count++
	}
	b.cells[cell]++
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
	if err := outsideSpace(e, s.numVertices); err != nil {
		return 0, err
	}
	b, cell := s.block(e, true)
	b.inc(cell)
	s.reprogram()
	s.liveEdges++
	return 1, nil
}

// DeleteEdge implements Store.
func (s *GraphRStore) DeleteEdge(e graph.Edge) (int, error) {
	b, cell := s.block(e, false)
	if b == nil || b.cells[cell] == 0 {
		return 0, nil
	}
	b.cells[cell]--
	if b.cells[cell] == 0 {
		b.count--
	}
	if b.count > 0 {
		s.reprogram()
	}
	s.liveEdges--
	return 1, nil
}

// AddVertex implements Store.
func (s *GraphRStore) AddVertex() (graph.VertexID, int, error) {
	if err := noIDLeft(s.numVertices); err != nil {
		return 0, 0, err
	}
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
