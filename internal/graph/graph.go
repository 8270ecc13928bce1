// Package graph provides the graph substrate used by the HyVE simulator:
// in-memory edge lists and CSR views, deterministic synthetic generators
// (R-MAT/Kronecker and uniform), the registry of the paper's five
// evaluation datasets, and compact binary serialization.
//
// The paper's datasets are SNAP downloads; this repository recreates them
// synthetically with matching vertex/edge counts and skew (see dataset.go
// and DESIGN.md §1 for the substitution argument).
package graph

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// VertexID indexes a vertex. The paper assumes 32-bit vertex indices
// (an edge is two 32-bit ids, 64 bits total).
type VertexID = uint32

// Edge is a directed edge: 64 bits, exactly the paper's layout
// ("32 bits for the source vertex index and 32 bits for the destination").
type Edge struct {
	Src, Dst VertexID
}

// EdgeBytes is the storage footprint of one edge in the edge memory.
const EdgeBytes = 8

// Graph is a directed graph stored as an edge list, the native format of
// the edge-centric model: edges are streamed sequentially, vertices are
// identified by dense indices in [0, NumVertices).
//
// Weights, when non-nil, holds one constant weight per edge (used by
// SSSP/SpMV); per the paper, weights never change during execution.
//
// Topology is immutable after generation: once any consumer has seen the
// graph (a state, a partition, a degree query, a digest), Edges, Weights
// and NumVertices must not change. Dynamic-graph workloads
// (internal/dynamic) snapshot into fresh Graphs instead of mutating one
// in place. OutDegrees, ContentDigest, Memo and EdgeMemo rely on this
// contract to memoize per instance. SortEdges and AttachUniformWeights
// are generation-time steps: they must never run on a shared graph. A
// weighted sibling (WithUniformWeights) aliases its parent's Edges, so
// sorting either one would reorder both; Clone first instead.
type Graph struct {
	NumVertices int
	Edges       []Edge
	Weights     []float32

	digestOnce sync.Once
	digest     [sha256.Size]byte

	memos memoTable
	// edgeMemos is the EdgeMemo table of the edge array, shared with
	// every graph that aliases Edges; nil until first use.
	edgeMemos *memoTable
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// Weight returns the weight of edge i, defaulting to 1 for unweighted
// graphs so traversal algorithms can treat every graph uniformly.
func (g *Graph) Weight(i int) float32 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[i]
}

// Validate checks structural invariants: every endpoint is in range and,
// if weights are present, there is exactly one per edge.
func (g *Graph) Validate() error {
	if g.NumVertices < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.NumVertices)
	}
	// Compare in uint64: a graph whose max vertex ID is MaxUint32 has
	// NumVertices = 1<<32, which a uint32 bound would truncate to zero.
	n := uint64(g.NumVertices)
	for i, e := range g.Edges {
		if uint64(e.Src) >= n || uint64(e.Dst) >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
	}
	return nil
}

// outDegreesKey keys the out-degree array in a graph's EdgeMemo table.
type outDegreesKey struct{}

// OutDegrees returns the out-degree of every vertex. The scan runs once
// per edge array and the result is memoized in its EdgeMemo table:
// every later call (from any goroutine), on g or on a weighted sibling
// that shares its edges, returns the same shared slice. Callers must
// treat it as read-only, and per the immutability contract on Graph the
// edge list must not be mutated after the first call.
//
// Degrees are uint32 (4 bytes/vertex instead of int's 8): a single
// vertex with more than 2³² out-edges is beyond even the paper's
// billion-edge graphs, and halving the array matters at full scale.
func (g *Graph) OutDegrees() []uint32 {
	v, _ := g.EdgeMemo(outDegreesKey{}, func() (any, error) {
		deg := make([]uint32, g.NumVertices)
		for _, e := range g.Edges {
			deg[e.Src]++
		}
		return deg, nil
	})
	return v.([]uint32)
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// Clone returns a deep copy of the graph, the one way to get a graph a
// caller may mutate (e.g. SortEdges) out of a shared one. Nothing
// derived from the original is copied: not its memos, and not its
// backing storage, which for a graph loaded from a v2 container may be
// a read-only mapping. To add weights, use WithUniformWeights, which
// copies nothing.
func (g *Graph) Clone() *Graph {
	c := &Graph{NumVertices: g.NumVertices, Edges: append([]Edge(nil), g.Edges...)}
	if g.Weights != nil {
		c.Weights = append([]float32(nil), g.Weights...)
	}
	return c
}

// SortEdges orders edges by (Src, Dst), the canonical layout for
// edge-centric frameworks that "sorted the edges to improve data
// locality" (paper §2.1). Weights, if present, follow their edges.
func (g *Graph) SortEdges() {
	if g.Weights == nil {
		sort.Slice(g.Edges, func(i, j int) bool { return edgeLess(g.Edges[i], g.Edges[j]) })
		return
	}
	idx := make([]int, len(g.Edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return edgeLess(g.Edges[idx[i]], g.Edges[idx[j]]) })
	edges := make([]Edge, len(g.Edges))
	weights := make([]float32, len(g.Weights))
	for to, from := range idx {
		edges[to] = g.Edges[from]
		weights[to] = g.Weights[from]
	}
	g.Edges, g.Weights = edges, weights
}

func edgeLess(a, b Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// ErrEmptyGraph is returned by operations that need at least one vertex.
var ErrEmptyGraph = errors.New("graph: empty graph")

// CSR is a compressed-sparse-row view of a graph: Offsets[v]..Offsets[v+1]
// index the out-edges of v inside Targets. It is the access structure the
// reference (vertex-centric) algorithm implementations use. Offsets are
// uint64 — edge positions, which overflow int32 on the paper's graphs
// and have no business being signed.
type CSR struct {
	Offsets []uint64
	Targets []VertexID
	Weights []float32
}

// BuildCSR constructs a CSR adjacency view without mutating g.
func BuildCSR(g *Graph) *CSR {
	offsets := make([]uint64, g.NumVertices+1)
	for _, e := range g.Edges {
		offsets[e.Src+1]++
	}
	for v := 0; v < g.NumVertices; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, len(g.Edges))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Edges))
	}
	next := make([]uint64, g.NumVertices)
	copy(next, offsets[:g.NumVertices])
	for i, e := range g.Edges {
		at := next[e.Src]
		targets[at] = e.Dst
		if weights != nil {
			weights[at] = g.Weights[i]
		}
		next[e.Src]++
	}
	return &CSR{Offsets: offsets, Targets: targets, Weights: weights}
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v VertexID) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases
// the CSR arrays and must not be modified.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}
