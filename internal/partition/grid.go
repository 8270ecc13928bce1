package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Grid is the interval-block partitioned form of a graph: all edges
// grouped by block, stored contiguously (block after block) exactly as
// HyVE lays them out in the edge memory (§3.4: "Several blocks are
// sequentially stored in the edge memory"). Edge order inside a block and
// block-major order follow the build; the flattened edge array index
// multiplied by graph.EdgeBytes is the edge-memory byte address.
type Grid struct {
	Assigner Assigner
	// edges holds every edge, grouped by block in row-major block order
	// (block id = x·P + y).
	edges   []graph.Edge
	weights []float32
	// offsets[b]..offsets[b+1] delimit block b in edges.
	offsets []int64
}

// Build partitions g under the assigner using a two-pass counting sort:
// O(|E|) time, no per-block allocation. It builds the edge layout the
// blocked functional run and the trace walk; the cost model needs only
// the block offsets (BlockOffsets). It parallelizes across all available
// CPUs (see BuildParallel for the worker knob and the determinism
// argument).
func Build(g *graph.Graph, a Assigner) (*Grid, error) {
	return BuildParallel(g, a, 0)
}

// BuildParallel is Build with an explicit worker count (≤0 means
// GOMAXPROCS, 1 runs fully inline). The layout is byte-identical at any
// worker count: pass one computes per-chunk block histograms in
// parallel, a sequential prefix sum turns them into per-chunk write
// cursors — chunks in edge-list order, so the sort stays stable — and
// pass two scatters each chunk into its disjoint slots of the
// preallocated edge/weight arrays.
func BuildParallel(g *graph.Graph, a Assigner, workers int) (*Grid, error) {
	if err := checkBuildArgs(g, a); err != nil {
		return nil, err
	}
	p := a.P()
	nb := p * p
	ne := len(g.Edges)

	// Pass 1: per-chunk histograms, memoizing each edge's block id so the
	// scatter pass does not recompute the two interval divisions.
	ids := make([]int32, ne)
	counts, chunks := histograms(g, a, workers, ids)
	chunkBounds := func(c int) (int, int) { return c * ne / chunks, (c + 1) * ne / chunks }

	// Prefix sum in (block, chunk) order: offsets delimit blocks, and
	// each chunk's counter becomes its private write cursor inside the
	// block — earlier chunks write earlier slots, preserving edge order.
	offsets := make([]int64, nb+1)
	var total int64
	for b := 0; b < nb; b++ {
		offsets[b] = total
		for c := 0; c < chunks; c++ {
			n := counts[c*nb+b]
			counts[c*nb+b] = total
			total += n
		}
	}
	offsets[nb] = total

	// Pass 2: parallel scatter; chunks write disjoint index ranges per
	// block, so the only shared state is read-only.
	edges := make([]graph.Edge, ne)
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, ne)
	}
	_ = parallel.ForEach(chunks, chunks, func(c int) error {
		lo, hi := chunkBounds(c)
		cur := counts[c*nb : (c+1)*nb]
		if weights != nil {
			for i := lo; i < hi; i++ {
				at := cur[ids[i]]
				cur[ids[i]]++
				edges[at] = g.Edges[i]
				weights[at] = g.Weights[i]
			}
		} else {
			for i := lo; i < hi; i++ {
				at := cur[ids[i]]
				cur[ids[i]]++
				edges[at] = g.Edges[i]
			}
		}
		return nil
	})
	return &Grid{Assigner: a, edges: edges, weights: weights, offsets: offsets}, nil
}

// BlockOffsets returns the P²+1 block offsets BuildParallel(g, a,
// workers) would produce — offsets[b]..offsets[b+1] delimit block
// b = x·P + y — without building the grid: it is BuildParallel's pass
// one with no per-edge id array and no scatter, so it allocates only the
// P²-sized histograms. The offsets are the same at any worker count, and
// it refuses exactly the inputs BuildParallel refuses. Block lengths and
// the assigner's interval lengths are all the cost model reads of a
// partition (the block-occupancy view of the paper's Table 1).
func BlockOffsets(g *graph.Graph, a Assigner, workers int) ([]int64, error) {
	if err := checkBuildArgs(g, a); err != nil {
		return nil, err
	}
	nb := a.P() * a.P()
	counts, chunks := histograms(g, a, workers, nil)
	offsets := make([]int64, nb+1)
	var total int64
	for b := 0; b < nb; b++ {
		offsets[b] = total
		for c := 0; c < chunks; c++ {
			total += counts[c*nb+b]
		}
	}
	offsets[nb] = total
	return offsets, nil
}

// offsetsKey keys the memoized block offsets of an edge array.
type offsetsKey struct {
	p          int
	contiguous bool
}

// SharedBlockOffsets is BlockOffsets memoized per (P, assigner kind) on
// g's edge array (graph.EdgeMemo), so a graph and its weighted siblings
// count each P once between them. The slice is shared by every caller
// and must be treated as read-only. Only the two production assigners
// are memoized; any other is counted afresh, as its equality with an
// earlier one cannot be known.
func SharedBlockOffsets(g *graph.Graph, a Assigner, workers int) ([]int64, error) {
	// Refuse before the memo: an entry is keyed by P and kind alone, so
	// it must never hold the error of a mismatched assigner.
	if err := checkBuildArgs(g, a); err != nil {
		return nil, err
	}
	var key offsetsKey
	switch a.(type) {
	case *Hashed:
		key = offsetsKey{p: a.P()}
	case *Contiguous:
		key = offsetsKey{p: a.P(), contiguous: true}
	default:
		return BlockOffsets(g, a, workers)
	}
	v, err := g.EdgeMemo(key, func() (any, error) { return BlockOffsets(g, a, workers) })
	if err != nil {
		return nil, err
	}
	return v.([]int64), nil
}

// checkBuildArgs refuses what no partitioning of g under a can hold: an
// assigner built for another vertex count, and more blocks than an
// int32 block id addresses.
func checkBuildArgs(g *graph.Graph, a Assigner) error {
	if g.NumVertices != a.NumVertices() {
		return fmt.Errorf("partition: assigner built for %d vertices, graph has %d",
			a.NumVertices(), g.NumVertices)
	}
	if p := a.P(); int64(p)*int64(p) > math.MaxInt32 {
		return fmt.Errorf("partition: %d intervals produce more blocks than addressable", p)
	}
	return nil
}

// histograms is the counting pass BuildParallel and BlockOffsets share:
// it splits g's edges into chunks in list order and returns each chunk's
// block histogram (chunk c's in counts[c·P²:(c+1)·P²]). With non-nil ids
// (one per edge) it also keeps every edge's block id for the scatter.
func histograms(g *graph.Graph, a Assigner, workers int, ids []int32) (counts []int64, chunks int) {
	nb := a.P() * a.P()
	ne := len(g.Edges)
	// One chunk per worker, but never so many that histogram storage
	// (chunks·P² counters) dwarfs the edge list itself.
	chunks = parallel.Workers(workers)
	for chunks > 1 && (ne/chunks < 4096 || chunks*nb > 4*ne+nb) {
		chunks--
	}
	counts = make([]int64, chunks*nb)
	_ = parallel.ForEach(chunks, chunks, func(c int) error {
		lo, hi := c*ne/chunks, (c+1)*ne/chunks
		var chunkIDs []int32
		if ids != nil {
			chunkIDs = ids[lo:hi]
		}
		tally(a, g.Edges[lo:hi], chunkIDs, counts[c*nb:(c+1)*nb])
		return nil
	})
	return counts, chunks
}

// tallyWindow is how many block ids tally computes before counting them:
// small enough that a window stays in L1 between the two loops.
const tallyWindow = 4096

// tally bumps counts[b] for the block b of every edge in edges. Non-nil
// ids (len(ids) == len(edges)) receive each edge's block id; otherwise
// the ids pass through a window buffer and are dropped.
func tally(a Assigner, edges []graph.Edge, ids []int32, counts []int64) {
	var buf [tallyWindow]int32
	for lo := 0; lo < len(edges); lo += tallyWindow {
		hi := min(lo+tallyWindow, len(edges))
		w := buf[:hi-lo]
		if ids != nil {
			w = ids[lo:hi]
		}
		BlockIDs(a, edges[lo:hi], w)
		for _, b := range w {
			counts[b]++
		}
	}
}

// BlockIDs writes the block id x·P + y of edges[i] into ids[i]; ids
// must hold at least len(edges) entries. The two production assigners
// get monomorphized loops — the interface-dispatched fallback costs
// three dynamic calls per edge, which at hundreds of millions of edges
// is the dominant build cost.
func BlockIDs(a Assigner, edges []graph.Edge, ids []int32) {
	ids = ids[:len(edges)]
	switch t := a.(type) {
	case *Hashed:
		p := uint32(t.p)
		if p&(p-1) == 0 {
			// Power-of-two interval count (every ChooseP result with a
			// power-of-two PU count and SRAM size): mask instead of mod.
			mask, shift := p-1, log2(p)
			for i, e := range edges {
				ids[i] = int32((e.Src&mask)<<shift | e.Dst&mask)
			}
			return
		}
		for i, e := range edges {
			ids[i] = int32(e.Src%p*p + e.Dst%p)
		}
	case *Contiguous:
		p, span := uint32(t.p), uint32(t.span)
		if span&(span-1) == 0 {
			shift := log2(span)
			for i, e := range edges {
				ids[i] = int32((e.Src>>shift)*p + e.Dst>>shift)
			}
			return
		}
		for i, e := range edges {
			ids[i] = int32(e.Src/span*p + e.Dst/span)
		}
	default:
		for i, e := range edges {
			ids[i] = int32(blockID(a, e))
		}
	}
}

func blockID(a Assigner, e graph.Edge) int {
	return a.IntervalOf(e.Src)*a.P() + a.IntervalOf(e.Dst)
}

// log2 returns the exponent of a power of two.
func log2(p uint32) uint32 {
	var s uint32
	for p > 1 {
		p >>= 1
		s++
	}
	return s
}

// P returns the number of intervals per dimension.
func (gr *Grid) P() int { return gr.Assigner.P() }

// NumEdges returns the total edge count.
func (gr *Grid) NumEdges() int { return len(gr.edges) }

// Block returns the edges of block (x, y): source interval x, destination
// interval y. The slice aliases grid storage and must not be modified.
func (gr *Grid) Block(x, y int) []graph.Edge {
	b := x*gr.P() + y
	return gr.edges[gr.offsets[b]:gr.offsets[b+1]]
}

// BlockWeights returns the weights of block (x, y), or nil for an
// unweighted grid.
func (gr *Grid) BlockWeights(x, y int) []float32 {
	if gr.weights == nil {
		return nil
	}
	b := x*gr.P() + y
	return gr.weights[gr.offsets[b]:gr.offsets[b+1]]
}

// BlockLen returns the number of edges in block (x, y).
func (gr *Grid) BlockLen(x, y int) int {
	b := x*gr.P() + y
	return int(gr.offsets[b+1] - gr.offsets[b])
}

// BlockOffset returns the index of block (x, y)'s first edge within the
// flattened edge array; ×graph.EdgeBytes gives the edge-memory address.
func (gr *Grid) BlockOffset(x, y int) int64 {
	return gr.offsets[x*gr.P()+y]
}

// NonEmpty counts blocks with at least one edge.
func (gr *Grid) NonEmpty() int {
	n := 0
	for b := 0; b < gr.P()*gr.P(); b++ {
		if gr.offsets[b+1] > gr.offsets[b] {
			n++
		}
	}
	return n
}

// IntervalEdgeCounts returns, per destination interval, the number of
// edges that update it — the per-PU workload whose balance the hash
// assignment improves.
func (gr *Grid) IntervalEdgeCounts() []int64 {
	p := gr.P()
	counts := make([]int64, p)
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			counts[y] += int64(gr.BlockLen(x, y))
		}
	}
	return counts
}
