// Package dynamic implements the paper's §5 working-flow support for
// evolving graphs: a host-managed online mode in which edges and
// vertices are added and deleted against the interval-block layout in
// O(1) amortized memory operations, using reserved slack space per block
// (default 30%) with linked overflow extents, plus the GraphR-style
// comparison store whose adjacency-matrix blocks must be rewritten on
// every change (the Fig. 20 contrast).
package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Store is a mutable graph layout that absorbs dynamic requests.
type Store interface {
	// AddEdge inserts e; returns the number of changed edges (1). Both
	// endpoints must lie in the store's current vertex space — an edge
	// referencing a vertex that was never added is an error, never an
	// implicit vertex creation.
	AddEdge(e graph.Edge) (int, error)
	// DeleteEdge removes one occurrence of e; returns changed edges
	// (1, or 0 if absent).
	DeleteEdge(e graph.Edge) (int, error)
	// AddVertex appends a fresh vertex and returns its id.
	AddVertex() (graph.VertexID, int, error)
	// DeleteVertex invalidates v (its value reads as invalid; the
	// paper's "-1 for PageRank").
	DeleteVertex(v graph.VertexID) (int, error)
	// NumEdges returns the live edge count.
	NumEdges() int64
}

// HyVEStore is the paper's layout: P² blocks, each with reserved slack
// (§5 "we reserve extra memory space for each block in advance, e.g. 30%
// of a block size"); when slack runs out, an overflow extent is linked
// from the end of the block. Vertex intervals carry slack too; running
// out of vertex slack forces a full re-preprocess (the paper's stated
// policy, because vertex access is not sequential). The rare structural
// events (overflow extents, re-preprocessing, compactions) are counted
// in obs.Default() — never the per-request fast path, so the Fig. 20
// wall-clock measurement stays undisturbed.
type HyVEStore struct {
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

type dynBlock struct {
	edges    []graph.Edge
	reserved int // slots available before overflow, including live edges
	// overflowed marks blocks that outgrew their reserved space since
	// the last compaction (they carry linked extents).
	overflowed bool
}

type slotRef struct {
	block int32
	slot  int32
}

// refList holds the slots of every live occurrence of one edge: the
// first inline (no allocation), duplicates spilled to a slice.
type refList struct {
	n     int32
	first uint64
	rest  []uint64
}

func edgeKey(e graph.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

func packRef(r slotRef) uint64 { return uint64(uint32(r.block))<<32 | uint64(uint32(r.slot)) }

func unpackRef(p uint64) slotRef {
	return slotRef{block: int32(p >> 32), slot: int32(uint32(p))}
}

func (l *refList) push(r uint64) {
	if l.n == 0 {
		l.first = r
	} else {
		l.rest = append(l.rest, r)
	}
	l.n++
}

func (l *refList) pop() uint64 {
	l.n--
	if len(l.rest) > 0 {
		r := l.rest[len(l.rest)-1]
		l.rest = l.rest[:len(l.rest)-1]
		return r
	}
	return l.first
}

// replace rewrites the stored ref equal to from with to.
func (l *refList) replace(from, to uint64) {
	if l.n > 0 && l.first == from {
		l.first = to
		return
	}
	for i := range l.rest {
		if l.rest[i] == from {
			l.rest[i] = to
			return
		}
	}
}

// NewHyVEStore lays out g under the assigner with the given slack
// fraction (the paper's example: 0.3).
func NewHyVEStore(g *graph.Graph, asg partition.Assigner, slack float64) (*HyVEStore, error) {
	if slack < 0 || slack > 1 {
		return nil, fmt.Errorf("dynamic: slack fraction %v out of [0,1]", slack)
	}
	grid, err := partition.Build(g, asg)
	if err != nil {
		return nil, err
	}
	p := asg.P()
	s := &HyVEStore{
		asg:         asg,
		slack:       slack,
		blocks:      make([]dynBlock, p*p),
		index:       make(map[uint64]refList, g.NumEdges()),
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

func (s *HyVEStore) blockOf(e graph.Edge) (int, error) {
	maxID := graph.VertexID(s.numVertices + s.vertexSlack)
	if e.Src >= maxID || e.Dst >= maxID {
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
func (s *HyVEStore) AddEdge(e graph.Edge) (int, error) {
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
func (s *HyVEStore) DeleteEdge(e graph.Edge) (int, error) {
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
func (s *HyVEStore) AddVertex() (graph.VertexID, int, error) {
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
func (s *HyVEStore) DeleteVertex(v graph.VertexID) (int, error) {
	if int(v) >= s.numVertices {
		return 0, fmt.Errorf("dynamic: vertex %d out of range", v)
	}
	s.invalid[v] = true
	return 1, nil
}

// NumEdges implements Store.
func (s *HyVEStore) NumEdges() int64 { return s.liveEdges }

// NumVertices returns the current vertex-space size.
func (s *HyVEStore) NumVertices() int { return s.numVertices }

// Invalid reports whether v has been deleted.
func (s *HyVEStore) Invalid(v graph.VertexID) bool { return s.invalid[v] }

// Edges returns a snapshot of all live edges (test support).
func (s *HyVEStore) Edges() []graph.Edge {
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
func (s *HyVEStore) Compact() {
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
func (s *HyVEStore) OverflowedBlocks() int {
	n := 0
	for b := range s.blocks {
		if s.blocks[b].overflowed {
			n++
		}
	}
	return n
}
