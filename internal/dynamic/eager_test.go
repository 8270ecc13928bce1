package dynamic

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// The two stores as they were built before the lazy base: every edge
// key's refs in one map, and every non-empty GraphR block allocated at
// load. The code below is theirs with the type and constructor names
// changed, the maps' size hints dropped (an oracle needs no presizing)
// and a stale clause about a timed Replay dropped from a comment; and
// with the fix of both id-space wraps at 1<<32, which the stores share:
// blockOf compares in int, and AddVertex refuses once every
// graph.VertexID is in use. The differential tests (stores_test.go)
// require the lazy stores to match them request for request.

// eagerHyVEStore is the paper's layout: P² blocks, each with reserved slack
// (§5 "we reserve extra memory space for each block in advance, e.g. 30%
// of a block size"); when slack runs out, an overflow extent is linked
// from the end of the block. Vertex intervals carry slack too; running
// out of vertex slack forces a full re-preprocess (the paper's stated
// policy, because vertex access is not sequential). The rare structural
// events (overflow extents, re-preprocessing, compactions) are counted
// in obs.Default() and on the store — never the per-request fast path.
// Fig. 20 prices a stream from these counters (experiments.PriceHyVE).
type eagerHyVEStore struct {
	asg   partition.Assigner
	slack float64

	blocks []dynBlock
	// index maps a packed edge key to its (block, slot) refs — the §5
	// "address managements for graph data in the memory" performed by
	// the host. Keys and refs are packed uint64s so the hot path stays
	// allocation-free for the (dominant) unique-edge case.
	index map[uint64]refList

	numVertices   int
	vertexSlack   int // additional vertex ids available before re-preprocessing
	invalid       map[graph.VertexID]bool
	liveEdges     int64
	Overflows     int64 // extents linked after block slack ran out
	Repreprocess  int64 // full preprocessing passes forced by vertex growth
	MovedLastEdge int64 // deletes that relocated a block's last edge
	Compactions   int64 // maintenance passes that restored slack
}

// newEagerHyVEStore lays out g under the assigner with the given slack
// fraction (the paper's example: 0.3).
func newEagerHyVEStore(g *graph.Graph, asg partition.Assigner, slack float64) (*eagerHyVEStore, error) {
	if slack < 0 || slack > 1 {
		return nil, fmt.Errorf("dynamic: slack fraction %v out of [0,1]", slack)
	}
	grid, err := partition.Build(g, asg)
	if err != nil {
		return nil, err
	}
	p := asg.P()
	s := &eagerHyVEStore{
		asg:         asg,
		slack:       slack,
		blocks:      make([]dynBlock, p*p),
		index:       map[uint64]refList{},
		numVertices: g.NumVertices,
		vertexSlack: int(float64(g.NumVertices) * slack),
		invalid:     map[graph.VertexID]bool{},
		liveEdges:   int64(g.NumEdges()),
	}
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			b := x*p + y
			blk := grid.Block(x, y)
			reserved := len(blk) + int(float64(len(blk))*slack) + 4
			s.blocks[b] = dynBlock{edges: append(make([]graph.Edge, 0, reserved), blk...), reserved: reserved}
			for slot, e := range blk {
				l := s.index[edgeKey(e)]
				l.push(packRef(slotRef{block: int32(b), slot: int32(slot)}))
				s.index[edgeKey(e)] = l
			}
		}
	}
	return s, nil
}

func (s *eagerHyVEStore) blockOf(e graph.Edge) (int, error) {
	if maxID := s.numVertices + s.vertexSlack; int(e.Src) >= maxID || int(e.Dst) >= maxID {
		return 0, fmt.Errorf("dynamic: edge %v outside vertex space", e)
	}
	p := s.asg.P()
	// Vertices beyond the original space land in the slack region of
	// their hashed interval.
	src := int(e.Src) % p
	dst := int(e.Dst) % p
	if int(e.Src) < s.numVertices {
		src = s.asg.IntervalOf(e.Src)
	}
	if int(e.Dst) < s.numVertices {
		dst = s.asg.IntervalOf(e.Dst)
	}
	return src*p + dst, nil
}

// AddEdge implements Store: append to the block's tail — into reserved
// slack if available, otherwise into a linked overflow extent. O(1).
func (s *eagerHyVEStore) AddEdge(e graph.Edge) (int, error) {
	if int(e.Src) >= s.numVertices || int(e.Dst) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: edge %v outside vertex space [0,%d)", e, s.numVertices)
	}
	b, err := s.blockOf(e)
	if err != nil {
		return 0, err
	}
	blk := &s.blocks[b]
	if len(blk.edges) == blk.reserved {
		// Reserved space exhausted: link an extent (§5 "HyVE allocates
		// extra memory space, which is linked from the end of the
		// original block").
		grow := blk.reserved/2 + 4
		blk.reserved += grow
		blk.overflowed = true
		s.Overflows++
		obs.Default().Count("dynamic.overflows", 1)
	}
	blk.edges = append(blk.edges, e)
	k := edgeKey(e)
	l := s.index[k]
	l.push(packRef(slotRef{block: int32(b), slot: int32(len(blk.edges) - 1)}))
	s.index[k] = l
	s.liveEdges++
	return 1, nil
}

// DeleteEdge implements Store: overwrite the victim with the block's
// last edge and shrink (§5 "replaces the edge with the last edge in the
// corresponding block"). O(1).
func (s *eagerHyVEStore) DeleteEdge(e graph.Edge) (int, error) {
	k := edgeKey(e)
	l, ok := s.index[k]
	if !ok || l.n == 0 {
		return 0, nil
	}
	packed := l.pop()
	if l.n == 0 {
		delete(s.index, k)
	} else {
		s.index[k] = l
	}
	ref := unpackRef(packed)
	blk := &s.blocks[ref.block]
	lastSlot := int32(len(blk.edges) - 1)
	if ref.slot != lastSlot {
		moved := blk.edges[lastSlot]
		blk.edges[ref.slot] = moved
		mk := edgeKey(moved)
		ml := s.index[mk]
		ml.replace(packRef(slotRef{block: ref.block, slot: lastSlot}),
			packRef(slotRef{block: ref.block, slot: ref.slot}))
		s.index[mk] = ml
		s.MovedLastEdge++
	}
	blk.edges = blk.edges[:lastSlot]
	s.liveEdges--
	return 1, nil
}

// AddVertex implements Store: consume one reserved vertex id; when the
// slack is gone, perform a full re-preprocess (§5: vertices, unlike
// edges, cannot be overflow-linked because their access is not
// sequential).
func (s *eagerHyVEStore) AddVertex() (graph.VertexID, int, error) {
	if s.numVertices > math.MaxUint32 {
		return 0, 0, fmt.Errorf("dynamic: vertex space [0,%d) has no id left", s.numVertices)
	}
	if s.vertexSlack == 0 {
		// Re-preprocess: rebuild the vertex space with fresh slack. The
		// blocks are keyed by modulo interval, so growing the id space
		// is a bookkeeping pass; we count it as the paper counts it.
		s.vertexSlack = int(float64(s.numVertices)*s.slack) + 1
		s.Repreprocess++
		obs.Default().Count("dynamic.repreprocess", 1)
	}
	id := graph.VertexID(s.numVertices)
	s.numVertices++
	s.vertexSlack--
	return id, 1, nil
}

// DeleteVertex implements Store: mark the value invalid.
func (s *eagerHyVEStore) DeleteVertex(v graph.VertexID) (int, error) {
	if int(v) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: vertex %d out of range", v)
	}
	s.invalid[v] = true
	return 1, nil
}

// NumEdges implements Store.
func (s *eagerHyVEStore) NumEdges() int64 { return s.liveEdges }

// NumVertices returns the current vertex-space size.
func (s *eagerHyVEStore) NumVertices() int { return s.numVertices }

// Invalid reports whether v has been deleted.
func (s *eagerHyVEStore) Invalid(v graph.VertexID) bool { return s.invalid[v] }

// Edges returns a snapshot of all live edges (test support).
func (s *eagerHyVEStore) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, s.liveEdges)
	for i := range s.blocks {
		out = append(out, s.blocks[i].edges...)
	}
	return out
}

// Compact rebuilds every block's storage with fresh reserved slack (the
// §5 maintenance pass a host runs when overflow extents accumulate:
// overflowed blocks are re-laid-out contiguously so the edge stream is
// sequential again). Live edges, their order, and the index survive;
// the overflow counter resets.
func (s *eagerHyVEStore) Compact() {
	for b := range s.blocks {
		blk := &s.blocks[b]
		reserved := len(blk.edges) + int(float64(len(blk.edges))*s.slack) + 4
		edges := make([]graph.Edge, len(blk.edges), reserved)
		copy(edges, blk.edges)
		blk.edges = edges
		blk.reserved = reserved
		blk.overflowed = false
	}
	s.Overflows = 0
	s.Compactions++
	obs.Default().Count("dynamic.compactions", 1)
}

// OverflowedBlocks counts blocks carrying linked overflow extents since
// the last compaction — the fragmentation measure a host would watch to
// schedule Compact.
func (s *eagerHyVEStore) OverflowedBlocks() int {
	n := 0
	for b := range s.blocks {
		if s.blocks[b].overflowed {
			n++
		}
	}
	return n
}

// eagerGraphRStore is the comparison target of Fig. 20: the same dynamic
// request mix applied to GraphR's adjacency-matrix block layout. A block
// is an 8×8 dense cell array destined for a compute crossbar; changing
// any edge means locating the block in the sparse block directory and
// *rewriting the whole block* (the crossbar holds an adjacency matrix,
// not an append-friendly list — §7.4.2 applies "the same strategy" but
// the representation forces per-change block reprogramming).
type eagerGraphRStore struct {
	dim         int
	blocks      map[uint64]*denseBlock
	numVertices int
	liveEdges   int64
	invalid     map[graph.VertexID]bool
	// Rewrites counts whole-block reprogramming passes.
	Rewrites int64
}

// newEagerGraphRStore lays out g in dim×dim dense blocks. The initial load
// is preprocessing, not online traffic: it sorts the edges' cell keys
// once (partition.SortBlockKeys) and fills each block from its run of
// keys with one allocation and one directory insert, reprogramming
// nothing, so Rewrites starts at 0. The store equals one grown from an
// empty graph by AddEdge on every edge in order, apart from Rewrites,
// and it refuses the same first out-of-range edge.
func newEagerGraphRStore(g *graph.Graph, dim int) (*eagerGraphRStore, error) {
	if dim <= 0 || dim*dim > 64 {
		return nil, fmt.Errorf("dynamic: block dim %d out of range", dim)
	}
	s := &eagerGraphRStore{
		dim:         dim,
		blocks:      map[uint64]*denseBlock{},
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

func (s *eagerGraphRStore) key(e graph.Edge) (uint64, int) {
	bx := uint64(e.Src) / uint64(s.dim)
	by := uint64(e.Dst) / uint64(s.dim)
	cell := int(e.Src)%s.dim*s.dim + int(e.Dst)%s.dim
	return bx<<32 | by, cell
}

// BlockCells is the number of cells one rewrite programs: every cell of
// a dim×dim block.
func (s *eagerGraphRStore) BlockCells() int { return s.dim * s.dim }

// reprogram counts one rewrite of the block's adjacency matrix: every
// cell of every bit-slice gang is programmed (GraphR splits 16-bit
// values over four 4-bit crossbar copies, so a change rewrites all
// four). Fig. 20 prices the count on the crossbar model.
func (s *eagerGraphRStore) reprogram() {
	s.Rewrites++
}

// AddEdge implements Store. Endpoints outside the current vertex space
// are rejected, matching eagerHyVEStore: silently growing the space here
// used to let the two Fig. 20 stores diverge on malformed streams.
func (s *eagerGraphRStore) AddEdge(e graph.Edge) (int, error) {
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
func (s *eagerGraphRStore) DeleteEdge(e graph.Edge) (int, error) {
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
func (s *eagerGraphRStore) AddVertex() (graph.VertexID, int, error) {
	if s.numVertices > math.MaxUint32 {
		return 0, 0, fmt.Errorf("dynamic: vertex space [0,%d) has no id left", s.numVertices)
	}
	id := graph.VertexID(s.numVertices)
	s.numVertices++
	return id, 1, nil
}

// DeleteVertex implements Store.
func (s *eagerGraphRStore) DeleteVertex(v graph.VertexID) (int, error) {
	if int(v) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: vertex %d out of range", v)
	}
	s.invalid[v] = true
	return 1, nil
}

// NumEdges implements Store.
func (s *eagerGraphRStore) NumEdges() int64 { return s.liveEdges }
