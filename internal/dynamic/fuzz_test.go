package dynamic

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// fuzzGraph builds the small fixed graph every generator fuzz case
// mutates against.
func fuzzGraph(t testing.TB) *graph.Graph {
	g, err := graph.GenerateUniform(32, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzGenerateRequests drives the stream generator across arbitrary
// mixes, lengths, and seeds. Termination is the property under test:
// before the drained-pool fallback, a delete-heavy mix could spin
// forever once every live edge was consumed.
func FuzzGenerateRequests(f *testing.F) {
	f.Add(45, 45, 5, 5, 100, uint64(1))
	f.Add(0, 100, 0, 0, 200, uint64(2)) // delete-only: must error, not hang
	f.Add(1, 99, 0, 0, 5000, uint64(3)) // delete-heavy with a trickle of adds
	f.Add(0, 99, 1, 0, 1000, uint64(4)) // fallback lands on add-vertex
	f.Add(0, 99, 0, 1, 1000, uint64(5)) // fallback lands on delete-vertex
	f.Add(100, 0, 0, 0, 0, uint64(6))   // empty stream
	f.Add(25, 25, 25, 25, 300, uint64(7))
	f.Fuzz(func(t *testing.T, add, del, av, dv, n int, seed uint64) {
		mix := Mix{AddEdgePct: add, DeleteEdgePct: del, AddVertexPct: av, DeleteVertexPct: dv}
		if mix.Validate() != nil {
			return
		}
		if n < 0 || n > 5000 {
			return
		}
		g := fuzzGraph(t)
		reqs, err := GenerateRequests(g, n, mix, seed)
		if err != nil {
			// The only legal failure is the drained delete-only pool.
			if mix.AddEdgePct != 0 || mix.AddVertexPct != 0 || mix.DeleteVertexPct != 0 {
				t.Fatalf("mix %+v with a fallback kind errored: %v", mix, err)
			}
			return
		}
		if len(reqs) != n {
			t.Fatalf("stream length %d, want %d", len(reqs), n)
		}
		// The stream must apply cleanly to a live store.
		asg, err := partition.NewHashed(g.NumVertices, 4)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewHyVEStore(g, asg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if _, err := Apply(s, r); err != nil {
				t.Fatalf("request %d (%v) failed: %v", i, r.Kind, err)
			}
		}
	})
}

// FuzzApply feeds raw, unvalidated requests to both store
// implementations: no request may panic, and the stores must agree on
// the surviving edge count.
func FuzzApply(f *testing.F) {
	f.Add(int8(0), uint32(1), uint32(2), uint32(0))
	f.Add(int8(1), uint32(500), uint32(500), uint32(0)) // delete absent edge
	f.Add(int8(2), uint32(0), uint32(0), uint32(0))
	f.Add(int8(3), uint32(0), uint32(0), uint32(99)) // delete absent vertex
	f.Add(int8(9), uint32(0), uint32(0), uint32(0))  // unknown kind
	f.Fuzz(func(t *testing.T, kind int8, src, dst, vtx uint32) {
		g := fuzzGraph(t)
		asg, err := partition.NewHashed(g.NumVertices, 4)
		if err != nil {
			t.Fatal(err)
		}
		hy, err := NewHyVEStore(g, asg, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := NewGraphRStore(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := Request{
			Kind:   RequestKind(kind),
			Edge:   graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)},
			Vertex: graph.VertexID(vtx),
		}
		_, hyErr := Apply(hy, r)
		_, grErr := Apply(gr, r)
		if (hyErr == nil) != (grErr == nil) {
			t.Fatalf("stores disagree on %v: hyve %v, graphr %v", r, hyErr, grErr)
		}
		if hyErr == nil && hy.NumEdges() != gr.NumEdges() {
			t.Fatalf("stores diverge after %v: hyve %d edges, graphr %d", r, hy.NumEdges(), gr.NumEdges())
		}
	})
}

// TestAddEdgeOutsideVertexSpace pins a fuzzer-found divergence (corpus
// entry f0fd65b1f867a245): GraphRStore used to grow the vertex space
// silently when an edge referenced a vertex that was never added, while
// HyVEStore rejected it. Both stores must now reject such edges.
func TestAddEdgeOutsideVertexSpace(t *testing.T) {
	g := fuzzGraph(t)
	asg, err := partition.NewHashed(g.NumVertices, 4)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := NewHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := graph.Edge{Src: 0, Dst: graph.VertexID(g.NumVertices + 44)}
	for _, s := range []Store{hy, gr} {
		if _, err := s.AddEdge(bad); err == nil {
			t.Errorf("%T accepted edge %v outside the vertex space", s, bad)
		}
	}
	if hy.NumEdges() != gr.NumEdges() {
		t.Fatalf("stores diverged: %d vs %d edges", hy.NumEdges(), gr.NumEdges())
	}
	// After growing the space with AddVertex the same edge is legal in both.
	for i := 0; i <= 44; i++ {
		if _, _, err := hy.AddVertex(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := gr.AddVertex(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []Store{hy, gr} {
		if _, err := s.AddEdge(bad); err != nil {
			t.Errorf("%T rejected edge %v after vertex growth: %v", s, bad, err)
		}
	}
	if hy.NumEdges() != gr.NumEdges() {
		t.Fatalf("stores diverged after growth: %d vs %d edges", hy.NumEdges(), gr.NumEdges())
	}
}

// TestGenerateRequestsDeleteOnlyDrains pins the satellite fix: a
// delete-only mix must return an error once the pool drains — the old
// generator spun forever re-rolling the same kind.
func TestGenerateRequestsDeleteOnlyDrains(t *testing.T) {
	g := fuzzGraph(t)
	mix := Mix{DeleteEdgePct: 100}
	_, err := GenerateRequests(g, g.NumEdges()+1, mix, 1)
	if err == nil {
		t.Fatal("delete-only mix outlasted the live pool without error")
	}
	// Exactly draining the pool is still fine.
	reqs, err := GenerateRequests(g, g.NumEdges(), mix, 1)
	if err != nil {
		t.Fatalf("delete-only mix within pool size errored: %v", err)
	}
	if len(reqs) != g.NumEdges() {
		t.Fatalf("got %d requests, want %d", len(reqs), g.NumEdges())
	}
}

// TestGenerateRequestsDeleteOnlyEdgeFree covers the degenerate corner:
// an edge-free graph drains the pool at request zero.
func TestGenerateRequestsDeleteOnlyEdgeFree(t *testing.T) {
	g := &graph.Graph{NumVertices: 4}
	if _, err := GenerateRequests(g, 10, Mix{DeleteEdgePct: 100}, 1); err == nil {
		t.Fatal("delete-only mix on an edge-free graph succeeded")
	}
	// With any fallback kind enabled the stream completes at full length.
	reqs, err := GenerateRequests(g, 10, Mix{DeleteEdgePct: 99, AddVertexPct: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 10 {
		t.Fatalf("got %d requests, want 10", len(reqs))
	}
}

// TestGenerateRequestsDeleteHeavyTerminates exercises the fallback on a
// stream long enough to drain and re-grow the pool many times.
func TestGenerateRequestsDeleteHeavyTerminates(t *testing.T) {
	g := fuzzGraph(t)
	for _, mix := range []Mix{
		{AddEdgePct: 1, DeleteEdgePct: 99},
		{DeleteEdgePct: 99, AddVertexPct: 1},
		{DeleteEdgePct: 99, DeleteVertexPct: 1},
	} {
		reqs, err := GenerateRequests(g, 20000, mix, 7)
		if err != nil {
			t.Fatalf("mix %+v: %v", mix, err)
		}
		if len(reqs) != 20000 {
			t.Fatalf("mix %+v: got %d requests, want 20000", mix, len(reqs))
		}
	}
}
