package dynamic

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// compactKind marks a differential-test operation that is no Request:
// a Compact of the two HyVE stores.
const compactKind RequestKind = -1

// outcome is what one request returned.
type outcome struct {
	id  graph.VertexID
	n   int
	err string
}

func applyOutcome(s Store, r Request) outcome {
	var o outcome
	var err error
	if r.Kind == AddVertex {
		o.id, o.n, err = s.AddVertex()
	} else {
		o.n, err = Apply(s, r)
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func hyveCounters(s *HyVEStore) [7]int64 {
	return [7]int64{s.liveEdges, int64(s.numVertices), int64(s.vertexSlack), s.Overflows, s.Repreprocess, s.MovedLastEdge, s.Compactions}
}

func eagerHyVECounters(s *eagerHyVEStore) [7]int64 {
	return [7]int64{s.liveEdges, int64(s.numVertices), int64(s.vertexSlack), s.Overflows, s.Repreprocess, s.MovedLastEdge, s.Compactions}
}

// eagerGraphRBlocks is graphRBlocks for the oracle, which drops a block
// once it empties.
func eagerGraphRBlocks(s *eagerGraphRStore) map[uint64]denseBlock {
	out := map[uint64]denseBlock{}
	for k, b := range s.blocks {
		out[k] = *b
	}
	return out
}

// requireMatchesEager applies ops to the lazy stores and to their eager
// oracles — HyVE over p hashed intervals with 30% slack, GraphR in
// dim×dim blocks — and fails at the first operation whose return values,
// error or counters differ between a store and its oracle, or on any
// difference in final state: HyVE's blocks in order with their slack and
// overflow marks, the slots every live edge resolves to and the invalid
// vertices; GraphR's cells and count in every block and its invalid
// vertices.
func requireMatchesEager(t testing.TB, name string, g *graph.Graph, p, dim int, ops []Request) {
	t.Helper()
	asg, err := partition.NewHashed(g.NumVertices, p)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := NewHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ohy, err := newEagerHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGraphRStore(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	ogr, err := newEagerGraphRStore(g, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ops {
		if r.Kind == compactKind {
			hy.Compact()
			ohy.Compact()
		} else {
			if got, want := applyOutcome(hy, r), applyOutcome(ohy, r); got != want {
				t.Fatalf("%s P=%d: op %d %+v: HyVE returned %+v, eager %+v", name, p, i, r, got, want)
			}
			if got, want := applyOutcome(gr, r), applyOutcome(ogr, r); got != want {
				t.Fatalf("%s dim %d: op %d %+v: GraphR returned %+v, eager %+v", name, dim, i, r, got, want)
			}
		}
		if got, want := hyveCounters(hy), eagerHyVECounters(ohy); got != want {
			t.Fatalf("%s P=%d: op %d %+v: HyVE counters %v, eager %v", name, p, i, r, got, want)
		}
		if gr.Rewrites != ogr.Rewrites || gr.liveEdges != ogr.liveEdges || gr.numVertices != ogr.numVertices {
			t.Fatalf("%s dim %d: op %d %+v: GraphR rewrites, edges, |V| %d %d %d; eager %d %d %d", name, dim, i, r,
				gr.Rewrites, gr.liveEdges, gr.numVertices, ogr.Rewrites, ogr.liveEdges, ogr.numVertices)
		}
	}

	if len(hy.blocks) != len(ohy.blocks) {
		t.Fatalf("%s P=%d: %d blocks, eager %d", name, p, len(hy.blocks), len(ohy.blocks))
	}
	for b := range hy.blocks {
		got, want := hy.blocks[b], ohy.blocks[b]
		if !slices.Equal(got.edges, want.edges) || got.reserved != want.reserved || got.overflowed != want.overflowed {
			t.Fatalf("%s P=%d: block %d holds %d edges, %d reserved, overflowed %t; eager %d, %d, %t",
				name, p, b, len(got.edges), got.reserved, got.overflowed, len(want.edges), want.reserved, want.overflowed)
		}
	}
	if !slices.Equal(hy.Edges(), ohy.Edges()) || hy.OverflowedBlocks() != ohy.OverflowedBlocks() {
		t.Fatalf("%s P=%d: edge snapshots or overflowed blocks differ", name, p)
	}
	// Every edge that is live, was in g or was touched resolves to the
	// oracle's slots, none for a dead one.
	touched := edgeMultiset(append(ohy.Edges(), g.Edges...))
	for k := range hy.index {
		touched[graph.Edge{Src: graph.VertexID(k >> 32), Dst: graph.VertexID(k)}]++
	}
	for e := range touched {
		got, want := hy.refs(e), ohy.index[edgeKey(e)]
		if got.n != want.n || got.n > 0 && (got.first != want.first || !slices.Equal(got.rest, want.rest)) {
			t.Fatalf("%s P=%d: edge %v resolves to %+v, eager %+v", name, p, e, got, want)
		}
	}
	if !maps.Equal(hy.invalid, ohy.invalid) {
		t.Fatalf("%s P=%d: invalid vertices differ", name, p)
	}
	requireSameBlocks(t, name, graphRBlocks(gr), eagerGraphRBlocks(ogr))
	if !maps.Equal(gr.invalid, ogr.invalid) {
		t.Fatalf("%s dim %d: invalid vertices differ", name, dim)
	}
}

// rawOps decodes five bytes per operation into requests no generator
// would make: adds and deletes between arbitrary ids, out-of-space ones
// and ids that AddVertex made included; deletes and duplicates of g's
// own edges; vertex operations; compactions; and an unknown kind. Low
// graphs draw ids from the current vertex space and two ids past it;
// the top-of-id-space graph draws them near its top and bottom.
func rawOps(g *graph.Graph, data []byte) []Request {
	nv := g.NumVertices
	id := func(x uint16) graph.VertexID {
		if g.NumVertices > 1<<16 {
			if x&1 == 0 {
				return math.MaxUint32 - graph.VertexID(x>>1%512)
			}
			return graph.VertexID(x >> 1 % 512)
		}
		return graph.VertexID(int(x) % (nv + 2))
	}
	var ops []Request
	for i := 0; i+4 < len(data); i += 5 {
		a := uint16(data[i+1])<<8 | uint16(data[i+2])
		b := uint16(data[i+3])<<8 | uint16(data[i+4])
		edge := graph.Edge{Src: id(a), Dst: id(b)}
		switch data[i] % 8 {
		case 0:
			ops = append(ops, Request{Kind: AddEdge, Edge: edge})
		case 1:
			ops = append(ops, Request{Kind: DeleteEdge, Edge: edge})
		case 2:
			ops = append(ops, Request{Kind: AddVertex})
			nv++
		case 3:
			ops = append(ops, Request{Kind: DeleteVertex, Vertex: id(a)})
		case 4, 5:
			if len(g.Edges) > 0 {
				kind := DeleteEdge
				if data[i]%8 == 5 {
					kind = AddEdge
				}
				ops = append(ops, Request{Kind: kind, Edge: g.Edges[int(a)%len(g.Edges)]})
			}
		case 6:
			ops = append(ops, Request{Kind: compactKind})
		default:
			ops = append(ops, Request{Kind: RequestKind(9), Edge: edge})
		}
	}
	return ops
}

// The lazy stores match the eager ones on every storeGraphs graph, at
// every GraphR dim and at P = 1, 2 and 8, over a generated stream with
// a compaction every 1,000 requests followed by raw operations.
func TestStoresMatchEager(t *testing.T) {
	for name, g := range storeGraphs(t) {
		for dim := 1; dim <= 8; dim++ {
			p := []int{1, 2, 8}[dim%3]
			reqs, err := GenerateRequests(g, 3000, PaperMix, uint64(dim))
			if err != nil {
				t.Fatal(err)
			}
			var ops []Request
			for i, r := range reqs {
				if i%1000 == 999 {
					ops = append(ops, Request{Kind: compactKind})
				}
				ops = append(ops, r)
			}
			rng := graph.NewRNG(uint64(dim) << 8)
			raw := make([]byte, 5*3000)
			for i := range raw {
				raw[i] = byte(rng.Uint64())
			}
			requireMatchesEager(t, name, g, p, dim, append(ops, rawOps(g, raw)...))
		}
	}
}

// FuzzStoresMatchEager runs the differential check on raw operations
// over any storeGraphs graph, interval count and GraphR dim.
func FuzzStoresMatchEager(f *testing.F) {
	graphs := storeGraphs(f)
	names := []string{"dups", "edgeless", "high", "rmat"}
	f.Add(uint8(0), uint8(0), uint8(7), []byte{4, 0, 3, 0, 0, 4, 0, 4, 0, 0, 1, 0, 9, 0, 2})
	f.Add(uint8(1), uint8(1), uint8(2), []byte{5, 0, 1, 0, 0, 5, 0, 1, 0, 0, 4, 0, 1, 0, 0, 6, 0, 0, 0, 0, 4, 0, 1, 0, 0})
	f.Add(uint8(2), uint8(3), uint8(0), []byte{2, 0, 0, 0, 0, 0, 0, 9, 0, 3, 1, 0, 9, 0, 3, 3, 0, 10, 0, 0, 7, 1, 1, 1, 1})
	f.Add(uint8(3), uint8(2), uint8(4), []byte{4, 0, 5, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, which, p, dim uint8, data []byte) {
		name := names[int(which)%len(names)]
		g := graphs[name]
		np := min(1<<(p%4), g.NumVertices)
		requireMatchesEager(t, name, g, np, int(dim%8)+1, rawOps(g, data))
	})
}

// An out-of-range edge fails the HyVE load with AddEdge's error, naming
// the first offending edge in edge order, so every edge of the initial
// layout lies in the block blockOf computes for it. A delete of an edge
// outside the vertex space still finds nothing and is no error.
func TestNewHyVEStoreRefusesFirstOutOfRangeEdge(t *testing.T) {
	g := &graph.Graph{NumVertices: 10, Edges: []graph.Edge{{Src: 1, Dst: 2}, {Src: 9, Dst: 12}, {Src: 40, Dst: 0}, {Src: 0, Dst: 10}}}
	for _, p := range []int{1, 2, 8} {
		asg, err := partition.NewHashed(g.NumVertices, p)
		if err != nil {
			t.Fatal(err)
		}
		_, bulkErr := NewHyVEStore(g, asg, 0.3)
		grown, err := NewHyVEStore(&graph.Graph{NumVertices: g.NumVertices}, asg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var grownErr error
		for _, e := range g.Edges {
			if _, grownErr = grown.AddEdge(e); grownErr != nil {
				break
			}
		}
		const want = "dynamic: edge {9 12} outside vertex space [0,10)"
		if bulkErr == nil || grownErr == nil || bulkErr.Error() != want || grownErr.Error() != want {
			t.Fatalf("P=%d: load error %v, AddEdge error %v, want %q", p, bulkErr, grownErr, want)
		}
		if n, err := grown.DeleteEdge(graph.Edge{Src: 40, Dst: 0}); n != 0 || err != nil {
			t.Fatalf("P=%d: deleting an edge outside the vertex space: n=%d err=%v", p, n, err)
		}
	}
}

// On a graph of all 1<<32 ids, the vertex space plus HyVE's vertex
// slack passes 1<<32: every id lies in the space, so both stores and
// their eager oracles accept an edge between any two ids, those past
// the slack's wrap point included, and no id is left for AddVertex,
// which must refuse rather than hand out id 0 again.
func TestStoresAtFullIDSpace(t *testing.T) {
	g := storeGraphs(t)["high"]
	asg, err := partition.NewHashed(g.NumVertices, 8)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := NewHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ohy, err := newEagerHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ogr, err := newEagerGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{"HyVE": hy, "eager HyVE": ohy, "GraphR": gr, "eager GraphR": ogr}
	// 1288490188 = 0.3·(1<<32) rounded up: the first id the wrapped
	// bound refused.
	const wrap, top = 1288490188, math.MaxUint32
	for _, e := range []graph.Edge{{Src: wrap, Dst: 0}, {Src: 0, Dst: wrap}, {Src: top, Dst: wrap + 1}, {Src: 1 << 31, Dst: top}} {
		for name, s := range stores {
			if n, err := s.AddEdge(e); n != 1 || err != nil {
				t.Fatalf("%s: AddEdge(%v) = %d, %v", name, e, n, err)
			}
		}
	}
	const want = "dynamic: vertex space [0,4294967296) has no id left"
	for name, s := range stores {
		if id, n, err := s.AddVertex(); n != 0 || err == nil || err.Error() != want {
			t.Fatalf("%s: AddVertex = %d, %d, %v; want the refusal %q", name, id, n, err, want)
		}
	}
	if hy.NumVertices() != 1<<32 || hy.Repreprocess != 0 || gr.numVertices != 1<<32 {
		t.Fatalf("refused AddVertex changed the stores: HyVE |V| %d, %d re-preprocesses; GraphR |V| %d",
			hy.NumVertices(), hy.Repreprocess, gr.numVertices)
	}
}
