package algo

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

func rmat(t *testing.T, v, e int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(v, e, graph.DefaultRMAT, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, p Program, g *graph.Graph) *Result {
	t.Helper()
	r, err := Run(p, g)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name(), err)
	}
	return r
}

func sameValues(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for v := range got {
		g, w := got[v], want[v]
		if math.IsInf(g, 1) && math.IsInf(w, 1) {
			continue
		}
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: vertex %d = %v, want %v", name, v, g, w)
		}
	}
}

func TestBFSMatchesReferenceOnChain(t *testing.T) {
	g, err := graph.GenerateChain(50)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, NewBFS(0), g)
	for v, d := range r.Values {
		if d != float64(v) {
			t.Fatalf("chain BFS level(%d) = %v, want %d", v, d, v)
		}
	}
	// Chain depth 49 needs 49 productive sweeps + 1 to detect quiescence.
	if r.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", r.Iterations)
	}
	if !r.Converged {
		t.Error("BFS did not report convergence")
	}
}

func TestBFSMatchesReferenceOnRMAT(t *testing.T) {
	g := rmat(t, 500, 3000, 21)
	r := run(t, NewBFS(0), g)
	sameValues(t, "BFS", r.Values, ReferenceBFS(g, 0), 0)
}

func TestCCMatchesReference(t *testing.T) {
	g := rmat(t, 300, 1200, 5)
	r := run(t, NewCC(), g)
	sameValues(t, "CC", r.Values, ReferenceCC(g), 0)
}

func TestCCOnDisconnectedGraph(t *testing.T) {
	// Two directed triangles, disjoint.
	g := &graph.Graph{NumVertices: 6, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}}
	r := run(t, NewCC(), g)
	want := []float64{0, 0, 0, 3, 3, 3}
	sameValues(t, "CC", r.Values, want, 0)
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := rmat(t, 400, 2400, 13)
	graph.AttachUniformWeights(g, 5, 17)
	r := run(t, NewSSSP(0), g)
	sameValues(t, "SSSP", r.Values, ReferenceSSSP(g, 0), 1e-4)
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := rmat(t, 50, 100, 1)
	if _, err := Run(NewSSSP(0), g); err == nil {
		t.Error("SSSP on unweighted graph accepted")
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := rmat(t, 300, 2000, 9)
	pr := NewPageRank()
	r := run(t, pr, g)
	want := ReferencePageRank(g, pr.Damping, pr.Iterations)
	sameValues(t, "PR", r.Values, want, 1e-9)
	if r.Iterations != 10 {
		t.Errorf("PR iterations = %d, want fixed 10", r.Iterations)
	}
}

func TestPageRankMassWithoutSinksIsConserved(t *testing.T) {
	// A ring has no dangling vertices, so total rank stays 1.
	n := 64
	g := &graph.Graph{NumVertices: n}
	for v := 0; v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)})
	}
	r := run(t, NewPageRank(), g)
	var sum float64
	for _, x := range r.Values {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PR mass = %v, want 1", sum)
	}
}

func TestSpMVMatchesDirect(t *testing.T) {
	g := rmat(t, 200, 1500, 3)
	graph.AttachUniformWeights(g, 2, 4)
	m := NewSpMV()
	r := run(t, m, g)
	x := make([]float64, g.NumVertices)
	for v := range x {
		x[v] = m.Init(graph.VertexID(v), g.NumVertices)
	}
	sameValues(t, "SpMV", r.Values, ReferenceSpMV(g, x), 1e-6)
	if r.Iterations != 1 {
		t.Errorf("SpMV iterations = %d, want 1", r.Iterations)
	}
}

// Block-order independence: processing edges in any order within an
// iteration yields identical results — the property that makes HyVE's
// parallel super-block schedule correct (§4.2 "no data dependent
// hazard").
func TestEdgeOrderIndependence(t *testing.T) {
	g := rmat(t, 256, 2048, 31)
	graph.AttachUniformWeights(g, 3, 8)
	shuffled := g.Clone()
	rng := graph.NewRNG(99)
	for i := len(shuffled.Edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
		shuffled.Weights[i], shuffled.Weights[j] = shuffled.Weights[j], shuffled.Weights[i]
	}
	for _, p := range All() {
		a := run(t, p, g)
		b := run(t, p, shuffled)
		sameValues(t, p.Name()+" order-independence", a.Values, b.Values, 1e-12)
		if a.Iterations != b.Iterations {
			t.Errorf("%s: iterations differ under reordering: %d vs %d", p.Name(), a.Iterations, b.Iterations)
		}
	}
}

func TestEdgesProcessedAccounting(t *testing.T) {
	g := rmat(t, 100, 700, 2)
	graph.AttachUniformWeights(g, 2, 2)
	for _, p := range All() {
		r := run(t, p, g)
		want := int64(r.Iterations) * int64(g.NumEdges())
		if r.EdgesProcessed != want {
			t.Errorf("%s: EdgesProcessed = %d, want iterations×|E| = %d", p.Name(), r.EdgesProcessed, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"PR", "BFS", "CC", "SSSP", "SpMV"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestProgramMetadata(t *testing.T) {
	meta := map[string]struct {
		valueBytes int
		mvm        bool
		weights    bool
	}{
		"PR":   {8, true, false},
		"BFS":  {4, false, false},
		"CC":   {4, false, false},
		"SSSP": {4, false, true},
		"SpMV": {8, true, true},
	}
	for _, p := range All() {
		m := meta[p.Name()]
		if p.ValueBytes() != m.valueBytes {
			t.Errorf("%s: ValueBytes = %d, want %d", p.Name(), p.ValueBytes(), m.valueBytes)
		}
		if p.MVMBased() != m.mvm {
			t.Errorf("%s: MVMBased = %v", p.Name(), p.MVMBased())
		}
		if p.NeedsWeights() != m.weights {
			t.Errorf("%s: NeedsWeights = %v", p.Name(), p.NeedsWeights())
		}
	}
}

func TestDanglingVerticesDoNotScatter(t *testing.T) {
	// Vertex 1 has no out-edges; PR must not divide by zero.
	g := &graph.Graph{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}}
	r := run(t, NewPageRank(), g)
	for v, x := range r.Values {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("PR value(%d) = %v", v, x)
		}
	}
}

func TestNewStateRejectsEmptyGraph(t *testing.T) {
	if _, err := NewState(NewBFS(0), &graph.Graph{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestStateStepwiseMatchesRun(t *testing.T) {
	g := rmat(t, 128, 512, 6)
	p := NewPageRank()
	want := run(t, p, g)
	s, err := NewState(p, g)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		s.BeginIteration()
		// Process edges in two arbitrary chunks, as a blocked simulator
		// would.
		half := len(g.Edges) / 2
		for i, e := range g.Edges[:half] {
			s.ProcessEdge(e, g.Weight(i))
		}
		for i, e := range g.Edges[half:] {
			s.ProcessEdge(e, g.Weight(half+i))
		}
		s.EndIteration()
	}
	sameValues(t, "stepwise PR", s.Values, want.Values, 0)
}

// TestCompareResultsComparesBits: CompareResults promises bit-identical
// values, so a +0 against a −0 fails, though the two compare equal as
// floats; equal bit patterns pass, a NaN included.
func TestCompareResultsComparesBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if err := CompareResults("zeros", &Result{Values: []float64{0}}, &Result{Values: []float64{negZero}}); err == nil {
		t.Error("{+0} against {−0} passed as bit-identical")
	}
	same := []float64{0, negZero, 1.5, math.Inf(1), math.NaN()}
	if err := CompareResults("same", &Result{Values: same}, &Result{Values: slices.Clone(same)}); err != nil {
		t.Errorf("equal bit patterns failed: %v", err)
	}
}
