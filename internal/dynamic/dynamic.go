// Package dynamic implements the paper's §5 working-flow support for
// evolving graphs: a host-managed online mode in which edges and
// vertices are added and deleted against the interval-block layout in
// O(1) amortized memory operations, using reserved slack space per block
// (default 30%) with linked overflow extents, plus the GraphR-style
// comparison store whose adjacency-matrix blocks must be rewritten on
// every change (the Fig. 20 contrast).
package dynamic

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

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
	// AddVertex appends a fresh vertex and returns its id. It fails,
	// changing nothing, when the vertex space already holds every
	// graph.VertexID.
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
// in obs.Default() and on the store — never the per-request fast path.
// Fig. 20 prices a stream from these counters (experiments.PriceHyVE).
type HyVEStore struct {
	asg   partition.Assigner
	slack float64

	blocks []dynBlock
	// base and index map an edge to the (block, slot) refs of its live
	// occurrences — the §5 "address managements for graph data in the
	// memory" performed by the host. base holds the initial layout's,
	// sorted once at load; index holds those of every edge key a request
	// added, deleted or moved, emptied ones included, and shadows base.
	// A slot changes hands only when its edge is deleted and the block's
	// last edge moves in, and both keys are then in index, so an edge
	// absent from index still sits at its initial slots. Keys and refs
	// are packed uint64s so the hot path stays allocation-free for the
	// (dominant) unique-edge case.
	base  baseIndex
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

// baseIndex is a layout's initial (edge, slot) pairs as one ascending
// array of keys: the edge in the high bits, then the ref, the block
// above the slot. An edge's keys thus form one run, in the order the
// layout holds its slots. Keys pack src and dst as idBits-wide fields
// and are radix sorted. Where they would not fit 64 bits (ids near
// 1<<32), the pairs are sorted by comparison instead, edges holds the
// distinct edge keys in ascending order, and a key's high bits number
// them.
type baseIndex struct {
	keys                      []uint64
	idBits, refBits, slotBits uint
	edges                     []uint64
}

func newBaseIndex(blocks []dynBlock, numVertices int) baseIndex {
	n, longest := 0, 1
	for _, b := range blocks {
		n += len(b.edges)
		longest = max(longest, len(b.edges))
	}
	x := baseIndex{idBits: uint(bits.Len64(uint64(numVertices - 1))), slotBits: uint(bits.Len(uint(longest - 1)))}
	x.refBits = uint(bits.Len(uint(len(blocks)-1))) + x.slotBits
	if 2*x.idBits+x.refBits > 64 {
		x.sortByComparison(blocks, n)
		return x
	}
	keys := make([]uint64, 0, n)
	for b := range blocks {
		for slot, e := range blocks[b].edges {
			keys = append(keys, (uint64(e.Src)<<x.idBits|uint64(e.Dst))<<x.refBits|uint64(b)<<x.slotBits|uint64(slot))
		}
	}
	x.keys = partition.RadixSort(keys, make([]uint64, n), 2*x.idBits+x.refBits)
	return x
}

// sortByComparison is newBaseIndex for keys whose edge does not fit
// beside its ref: it sorts the (edge, ref) pairs and numbers the
// distinct edges in that order.
func (x *baseIndex) sortByComparison(blocks []dynBlock, n int) {
	type pair struct{ edge, ref uint64 }
	pairs := make([]pair, 0, n)
	for b := range blocks {
		for slot, e := range blocks[b].edges {
			pairs = append(pairs, pair{edgeKey(e), uint64(b)<<x.slotBits | uint64(slot)})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Or(cmp.Compare(a.edge, b.edge), cmp.Compare(a.ref, b.ref)) })
	x.keys = make([]uint64, n)
	x.edges = []uint64{}
	for i, p := range pairs {
		if len(x.edges) == 0 || x.edges[len(x.edges)-1] != p.edge {
			x.edges = append(x.edges, p.edge)
		}
		x.keys[i] = uint64(len(x.edges)-1)<<x.refBits | p.ref
	}
}

// refs returns the initial layout's slots of e in ascending order, the
// order the layout pushed them: a binary search, after one over the
// distinct edges where the keys number them.
func (x *baseIndex) refs(e graph.Edge) refList {
	var edge uint64
	if x.edges != nil {
		n, ok := slices.BinarySearch(x.edges, edgeKey(e))
		if !ok {
			return refList{}
		}
		edge = uint64(n)
	} else {
		if (e.Src|e.Dst)>>x.idBits != 0 {
			return refList{}
		}
		edge = uint64(e.Src)<<x.idBits | uint64(e.Dst)
	}
	var l refList
	lo := sort.Search(len(x.keys), func(i int) bool { return x.keys[i]>>x.refBits >= edge })
	for _, key := range x.keys[lo:] {
		if key>>x.refBits != edge {
			break
		}
		ref := key & (1<<x.refBits - 1)
		l.push(packRef(slotRef{block: int32(ref >> x.slotBits), slot: int32(ref & (1<<x.slotBits - 1))}))
	}
	return l
}

// outsideSpace is AddEdge's refusal of an edge with an endpoint outside
// a vertex space of n ids, or nil.
func outsideSpace(e graph.Edge, n int) error {
	if int(e.Src) >= n || int(e.Dst) >= n {
		return fmt.Errorf("dynamic: edge %v outside vertex space [0,%d)", e, n)
	}
	return nil
}

// noIDLeft is AddVertex's refusal when a vertex space of n ids holds
// every graph.VertexID, or nil.
func noIDLeft(n int) error {
	if n > math.MaxUint32 {
		return fmt.Errorf("dynamic: vertex space [0,%d) has no id left", n)
	}
	return nil
}

// NewHyVEStore lays out g under the assigner with the given slack
// fraction (the paper's example: 0.3). It refuses the first edge in
// edge order that AddEdge would refuse. Each block is sized with its
// slack from the partition's block offsets (partition.SharedBlockOffsets)
// and filled in edge order, the order partition.Build keeps inside a
// block; the index is one sorted array of the layout's (edge, slot)
// keys, which a request reads the first time it touches an edge.
func NewHyVEStore(g *graph.Graph, asg partition.Assigner, slack float64) (*HyVEStore, error) {
	if slack < 0 || slack > 1 {
		return nil, fmt.Errorf("dynamic: slack fraction %v out of [0,1]", slack)
	}
	for _, e := range g.Edges {
		if err := outsideSpace(e, g.NumVertices); err != nil {
			return nil, err
		}
	}
	offsets, err := partition.SharedBlockOffsets(g, asg, 0)
	if err != nil {
		return nil, err
	}
	p := asg.P()
	s := &HyVEStore{
		asg:         asg,
		slack:       slack,
		blocks:      make([]dynBlock, p*p),
		index:       map[uint64]refList{},
		numVertices: g.NumVertices,
		vertexSlack: int(float64(g.NumVertices) * slack),
		invalid:     map[graph.VertexID]bool{},
		liveEdges:   int64(g.NumEdges()),
	}
	for b := range s.blocks {
		n := int(offsets[b+1] - offsets[b])
		reserved := n + int(float64(n)*slack) + 4
		s.blocks[b] = dynBlock{edges: make([]graph.Edge, 0, reserved), reserved: reserved}
	}
	var ids [1024]int32
	for lo := 0; lo < len(g.Edges); lo += len(ids) {
		edges := g.Edges[lo:min(lo+len(ids), len(g.Edges))]
		partition.BlockIDs(asg, edges, ids[:])
		for i, e := range edges {
			blk := &s.blocks[ids[i]]
			blk.edges = append(blk.edges, e)
		}
	}
	s.base = newBaseIndex(s.blocks, g.NumVertices)
	return s, nil
}

// refs returns the live slots of e: index's list once a request has
// touched e, else the initial layout's.
func (s *HyVEStore) refs(e graph.Edge) refList {
	if l, ok := s.index[edgeKey(e)]; ok {
		return l
	}
	return s.base.refs(e)
}

func (s *HyVEStore) blockOf(e graph.Edge) (int, error) {
	// In int: the vertex space plus its slack can pass 1<<32.
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
// slack if available, otherwise into a linked overflow extent. O(1),
// plus a search of the base the first time a request touches e.
func (s *HyVEStore) AddEdge(e graph.Edge) (int, error) {
	if err := outsideSpace(e, s.numVertices); err != nil {
		return 0, err
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
	l := s.refs(e)
	l.push(packRef(slotRef{block: int32(b), slot: int32(len(blk.edges) - 1)}))
	s.index[edgeKey(e)] = l
	s.liveEdges++
	return 1, nil
}

// DeleteEdge implements Store: overwrite the victim with the block's
// last edge and shrink (§5 "replaces the edge with the last edge in the
// corresponding block"). O(1), plus a search of the base the first time
// a request touches e or the moved edge.
func (s *HyVEStore) DeleteEdge(e graph.Edge) (int, error) {
	l := s.refs(e)
	if l.n == 0 {
		return 0, nil
	}
	packed := l.pop()
	s.index[edgeKey(e)] = l
	ref := unpackRef(packed)
	blk := &s.blocks[ref.block]
	lastSlot := int32(len(blk.edges) - 1)
	if ref.slot != lastSlot {
		moved := blk.edges[lastSlot]
		blk.edges[ref.slot] = moved
		ml := s.refs(moved)
		ml.replace(packRef(slotRef{block: ref.block, slot: lastSlot}),
			packRef(slotRef{block: ref.block, slot: ref.slot}))
		s.index[edgeKey(moved)] = ml
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
	if err := noIDLeft(s.numVertices); err != nil {
		return 0, 0, err
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
