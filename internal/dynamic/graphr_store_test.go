package dynamic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// growGraphRStore is the oracle of the bulk load: a store made from an
// edgeless graph of g's vertex space and grown through the public
// AddEdge, one edge at a time in edge order.
func growGraphRStore(g *graph.Graph, dim int) (*GraphRStore, error) {
	s, err := NewGraphRStore(&graph.Graph{NumVertices: g.NumVertices}, dim)
	if err != nil {
		return nil, err
	}
	for _, e := range g.Edges {
		if _, err := s.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// graphRBlocks materializes every block of s that holds an edge, by
// bx<<32 | by: a block a request touched as it stands, any other as its
// run of base keys fills it. It changes nothing in s.
func graphRBlocks(s *GraphRStore) map[uint64]denseBlock {
	out := map[uint64]denseBlock{}
	for k, b := range s.blocks {
		if b.count > 0 {
			out[k] = *b
		}
	}
	for lo := 0; lo < len(s.base.Keys); lo = s.base.BlockEnd(lo) {
		bx, by := s.base.Block(s.base.Keys[lo])
		if k := uint64(bx)<<32 | uint64(by); s.blocks[k] == nil {
			out[k] = *s.fill(bx, by)
		}
	}
	return out
}

// requireSameBlocks fails unless two stores' materialized blocks agree:
// the same directory keys, cells and counts.
func requireSameBlocks(t testing.TB, what string, got, want map[uint64]denseBlock) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for k, wb := range want {
		gb, ok := got[k]
		if !ok {
			t.Fatalf("%s: block %#x missing", what, k)
		}
		if gb != wb {
			t.Fatalf("%s: block %#x is %+v, want %+v", what, k, gb, wb)
		}
	}
}

// requireSameStore fails unless the bulk-loaded store equals the grown
// one field for field — directory keys, cells, counts, live edges,
// vertex space — and the bulk load reprogrammed nothing.
func requireSameStore(t *testing.T, name string, dim int, bulk, grown *GraphRStore) {
	t.Helper()
	if bulk.Rewrites != 0 {
		t.Fatalf("%s dim %d: bulk load counted %d rewrites", name, dim, bulk.Rewrites)
	}
	if bulk.dim != grown.dim || bulk.numVertices != grown.numVertices || bulk.liveEdges != grown.liveEdges ||
		len(bulk.invalid) != len(grown.invalid) {
		t.Fatalf("%s dim %d: bulk dim %d, |V| %d, %d edges, %d invalid; grown %d, %d, %d, %d", name, dim,
			bulk.dim, bulk.numVertices, bulk.liveEdges, len(bulk.invalid),
			grown.dim, grown.numVertices, grown.liveEdges, len(grown.invalid))
	}
	requireSameBlocks(t, fmt.Sprintf("%s dim %d bulk load", name, dim), graphRBlocks(bulk), graphRBlocks(grown))
}

// storeGraphs: a skewed R-MAT graph, parallel edges with self-loops, an
// edgeless graph, and the whole 32-bit vertex space with edges at its top
// ids, where cell keys of dims 3, 5, 6 and 7 fall back to a comparison
// sort.
func storeGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rmat, err := graph.GenerateRMAT(2048, 1<<14, graph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	dups := &graph.Graph{NumVertices: 24}
	for i := 0; i < 400; i++ {
		v := graph.VertexID(i * 5 % 24)
		dups.Edges = append(dups.Edges, graph.Edge{Src: v, Dst: v}, graph.Edge{Src: v % 7, Dst: 23 - v%3})
	}
	const top = math.MaxUint32
	high := &graph.Graph{NumVertices: 1 << 32, Edges: []graph.Edge{
		{Src: top, Dst: top}, {Src: top, Dst: 0}, {Src: 0, Dst: top}, {Src: top - 1, Dst: top - 7},
		{Src: 1 << 31, Dst: 1<<31 - 1}, {Src: top, Dst: top}, {Src: top - 9, Dst: 1 << 30}, {Src: 0, Dst: 0},
	}}
	return map[string]*graph.Graph{"rmat": rmat, "dups": dups, "edgeless": {NumVertices: 9}, "high": high}
}

// NewGraphRStore's bulk load equals the store AddEdge grows, at every
// dim a dense block holds.
func TestNewGraphRStoreMatchesGrown(t *testing.T) {
	for name, g := range storeGraphs(t) {
		for dim := 1; dim <= 8; dim++ {
			bulk, err := NewGraphRStore(g, dim)
			if err != nil {
				t.Fatal(err)
			}
			grown, err := growGraphRStore(g, dim)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStore(t, name, dim, bulk, grown)
		}
	}
}

// An out-of-range edge fails the bulk load with AddEdge's error, naming
// the first offending edge in edge order, not the first in block order.
func TestNewGraphRStoreRefusesFirstOutOfRangeEdge(t *testing.T) {
	g := &graph.Graph{NumVertices: 10, Edges: []graph.Edge{{Src: 1, Dst: 2}, {Src: 9, Dst: 12}, {Src: 0, Dst: 10}, {Src: 11, Dst: 0}}}
	for dim := 1; dim <= 8; dim++ {
		_, bulkErr := NewGraphRStore(g, dim)
		_, grownErr := growGraphRStore(g, dim)
		if bulkErr == nil || grownErr == nil || bulkErr.Error() != grownErr.Error() {
			t.Fatalf("dim %d: bulk load error %v, AddEdge error %v", dim, bulkErr, grownErr)
		}
	}
}

// FuzzGraphRStoreBuild compares the bulk load with the grown store on
// arbitrary edge lists, dims and vertex spaces, at low ids or at the top
// of the id space, out-of-range edges included.
func FuzzGraphRStoreBuild(f *testing.F) {
	f.Add(uint8(8), uint8(40), false, []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 1})
	f.Add(uint8(3), uint8(0), true, []byte{255, 255, 0, 255, 7, 7, 7, 7})
	f.Add(uint8(5), uint8(9), false, []byte{1, 2, 8, 9, 3, 3})
	f.Add(uint8(1), uint8(1), false, []byte{})
	f.Fuzz(func(t *testing.T, dim, nv uint8, high bool, data []byte) {
		d := int(dim%8) + 1
		g := &graph.Graph{NumVertices: int(nv) + 1}
		var base graph.VertexID
		if high {
			g.NumVertices, base = 1<<32, math.MaxUint32-255
		}
		for i := 0; i+1 < len(data); i += 2 {
			g.Edges = append(g.Edges, graph.Edge{Src: base + uint32(data[i]), Dst: base + uint32(data[i+1])})
		}
		bulk, bulkErr := NewGraphRStore(g, d)
		grown, grownErr := growGraphRStore(g, d)
		if (bulkErr == nil) != (grownErr == nil) || bulkErr != nil && bulkErr.Error() != grownErr.Error() {
			t.Fatalf("dim %d: bulk load error %v, AddEdge error %v", d, bulkErr, grownErr)
		}
		if bulkErr == nil {
			requireSameStore(t, "fuzz", d, bulk, grown)
		}
	})
}
