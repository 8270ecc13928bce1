package dynamic

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newHyVE(t *testing.T, g *graph.Graph) *HyVEStore {
	t.Helper()
	asg, err := partition.NewHashed(g.NumVertices, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func edgeMultiset(edges []graph.Edge) map[graph.Edge]int {
	m := map[graph.Edge]int{}
	for _, e := range edges {
		m[e]++
	}
	return m
}

func TestHyVEStoreInitialState(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	if s.NumEdges() != int64(g.NumEdges()) {
		t.Fatalf("live edges = %d, want %d", s.NumEdges(), g.NumEdges())
	}
	got := edgeMultiset(s.Edges())
	want := edgeMultiset(g.Edges)
	if len(got) != len(want) {
		t.Fatalf("distinct edges %d vs %d", len(got), len(want))
	}
	for e, n := range want {
		if got[e] != n {
			t.Fatalf("edge %v count %d, want %d", e, got[e], n)
		}
	}
}

func TestAddThenDeleteRestoresState(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	before := edgeMultiset(s.Edges())
	e := graph.Edge{Src: 3, Dst: 77}
	for i := 0; i < 5; i++ {
		if n, err := s.AddEdge(e); err != nil || n != 1 {
			t.Fatalf("AddEdge: n=%d err=%v", n, err)
		}
	}
	for i := 0; i < 5; i++ {
		if n, err := s.DeleteEdge(e); err != nil || n != 1 {
			t.Fatalf("DeleteEdge: n=%d err=%v", n, err)
		}
	}
	after := edgeMultiset(s.Edges())
	if len(after) != len(before) {
		t.Fatalf("distinct edges changed: %d vs %d", len(after), len(before))
	}
	for e, n := range before {
		if after[e] != n {
			t.Fatalf("edge %v count %d, want %d", e, after[e], n)
		}
	}
}

func TestDeleteAbsentEdgeIsNoop(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	before := s.Edges()
	live := edgeMultiset(before)
	phantom := graph.Edge{Src: 1, Dst: 2}
	for live[phantom] > 0 {
		phantom.Dst += 3 // find an edge not in the store
	}
	n, err := s.DeleteEdge(phantom)
	if err != nil || n != 0 {
		t.Fatalf("deleting absent edge: n=%d err=%v", n, err)
	}
	if !slices.Equal(s.Edges(), before) || s.NumEdges() != int64(len(before)) || s.MovedLastEdge != 0 {
		t.Fatalf("deleting absent edge %v changed the store", phantom)
	}
}

func TestSlackOverflowLinksExtents(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	// Hammer one block far past its 30% slack.
	e := graph.Edge{Src: 0, Dst: 8} // block (0,0) under mod-8 hashing
	for i := 0; i < 10_000; i++ {
		if _, err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Overflows == 0 {
		t.Error("no overflow extents linked despite massive insertion")
	}
}

func TestAddVertexConsumesSlackThenRepreprocesses(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	slack := s.vertexSlack
	for i := 0; i < slack; i++ {
		if _, _, err := s.AddVertex(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Repreprocess != 0 {
		t.Fatalf("re-preprocessed while slack remained")
	}
	if _, _, err := s.AddVertex(); err != nil {
		t.Fatal(err)
	}
	if s.Repreprocess != 1 {
		t.Fatalf("Repreprocess = %d, want 1 after slack exhaustion", s.Repreprocess)
	}
}

func TestNewEdgesCanUseNewVertices(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	id, _, err := s.AddVertex()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdge(graph.Edge{Src: id, Dst: 0}); err != nil {
		t.Fatalf("edge to fresh vertex rejected: %v", err)
	}
	// But edges far outside the slack space are rejected.
	if _, err := s.AddEdge(graph.Edge{Src: graph.VertexID(g.NumVertices * 10), Dst: 0}); err == nil {
		t.Error("edge outside vertex space accepted")
	}
}

func TestDeleteVertexMarksInvalid(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	if _, err := s.DeleteVertex(5); err != nil {
		t.Fatal(err)
	}
	if !s.Invalid(5) || s.Invalid(6) {
		t.Error("invalid marking wrong")
	}
	if _, err := s.DeleteVertex(graph.VertexID(s.NumVertices() + 100)); err == nil {
		t.Error("out-of-range delete accepted")
	}
}

func TestNewHyVEStoreValidation(t *testing.T) {
	g := testGraph(t)
	asg, _ := partition.NewHashed(g.NumVertices, 8)
	if _, err := NewHyVEStore(g, asg, -0.1); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := NewHyVEStore(g, asg, 1.5); err == nil {
		t.Error("slack > 1 accepted")
	}
}

func TestGraphRStoreRoundTrip(t *testing.T) {
	g := testGraph(t)
	s, err := NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != int64(g.NumEdges()) {
		t.Fatalf("live edges = %d, want %d", s.NumEdges(), g.NumEdges())
	}
	e := graph.Edge{Src: 9, Dst: 200}
	if _, err := s.AddEdge(e); err != nil {
		t.Fatal(err)
	}
	if s.Rewrites == 0 {
		t.Error("add did not rewrite the block")
	}
	if n, _ := s.DeleteEdge(e); n != 1 {
		t.Error("delete failed")
	}
	if s.NumEdges() != int64(g.NumEdges()) {
		t.Error("edge count drifted")
	}
	if _, err := NewGraphRStore(g, 0); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewGraphRStore(g, 10); err == nil {
		t.Error("oversized dim accepted")
	}
}

func TestMixValidation(t *testing.T) {
	if err := PaperMix.Validate(); err != nil {
		t.Errorf("PaperMix invalid: %v", err)
	}
	if (Mix{AddEdgePct: 50, DeleteEdgePct: 50, AddVertexPct: 10}).Validate() == nil {
		t.Error("mix not summing to 100 accepted")
	}
	if (Mix{AddEdgePct: -10, DeleteEdgePct: 110}).Validate() == nil {
		t.Error("negative mix accepted")
	}
}

func TestGenerateRequestsDeterministicAndApplicable(t *testing.T) {
	g := testGraph(t)
	a, err := GenerateRequests(g, 2000, PaperMix, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRequests(g, 2000, PaperMix, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("request stream not deterministic")
		}
	}
	// Kind distribution roughly matches the mix.
	counts := map[RequestKind]int{}
	for _, r := range a {
		counts[r.Kind]++
	}
	if counts[AddEdge] < 700 || counts[DeleteEdge] < 700 {
		t.Errorf("edge ops underrepresented: %v", counts)
	}
	if counts[AddVertex] == 0 || counts[DeleteVertex] == 0 {
		t.Errorf("vertex ops missing: %v", counts)
	}
	// The same stream must apply cleanly to both stores, and every
	// delete must hit a live edge on the HyVE store.
	hv := newHyVE(t, g)
	for _, r := range a {
		n, err := Apply(hv, r)
		if err != nil {
			t.Fatalf("HyVE apply %v: %v", r, err)
		}
		if r.Kind == DeleteEdge && n != 1 {
			t.Fatalf("delete of generated edge %v missed", r.Edge)
		}
	}
	gr, err := NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a {
		if _, err := Apply(gr, r); err != nil {
			t.Fatalf("GraphR apply %v: %v", r, err)
		}
	}
	// Both stores end with identical live-edge counts.
	if hv.NumEdges() != gr.NumEdges() {
		t.Errorf("stores diverged: %d vs %d live edges", hv.NumEdges(), gr.NumEdges())
	}
}

func TestReplayCounts(t *testing.T) {
	g := testGraph(t)
	reqs, err := GenerateRequests(g, 1000, PaperMix, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Replay(newHyVE(t, g), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Requests != 1000 {
		t.Errorf("requests = %d", tp.Requests)
	}
	if tp.EdgesChanged < 900 { // deletes of generated edges always hit
		t.Errorf("edges changed = %d, implausibly low", tp.EdgesChanged)
	}
}

func TestRequestKindStrings(t *testing.T) {
	for _, k := range []RequestKind{AddEdge, DeleteEdge, AddVertex, DeleteVertex} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	if RequestKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestCompactRestoresSlackAndPreservesEdges(t *testing.T) {
	g := testGraph(t)
	s := newHyVE(t, g)
	// Force overflows.
	e := graph.Edge{Src: 0, Dst: 8}
	for i := 0; i < 5000; i++ {
		if _, err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Overflows == 0 {
		t.Fatal("expected overflows before compaction")
	}
	if s.OverflowedBlocks() == 0 {
		t.Fatal("no block marked overflowed")
	}
	before := edgeMultiset(s.Edges())
	s.Compact()
	if s.OverflowedBlocks() != 0 {
		t.Error("compaction left overflowed blocks")
	}
	if s.Overflows != 0 || s.Compactions != 1 {
		t.Errorf("compaction bookkeeping wrong: %d overflows, %d compactions", s.Overflows, s.Compactions)
	}
	after := edgeMultiset(s.Edges())
	for k, n := range before {
		if after[k] != n {
			t.Fatalf("edge %v count changed across Compact", k)
		}
	}
	// The index must still resolve deletes after compaction.
	for i := 0; i < 5000; i++ {
		if n, err := s.DeleteEdge(e); err != nil || n != 1 {
			t.Fatalf("delete %d after compaction failed: n=%d err=%v", i, n, err)
		}
	}
	// Fresh slack absorbs new inserts without immediate overflow.
	s.Compact()
	if _, err := s.AddEdge(e); err != nil {
		t.Fatal(err)
	}
	if s.Overflows != 0 {
		t.Error("single insert after compaction should not overflow")
	}
}
