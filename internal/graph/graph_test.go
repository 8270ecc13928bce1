package graph

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := GenerateChain(n)
	if err != nil {
		t.Fatalf("GenerateChain(%d): %v", n, err)
	}
	return g
}

func TestValidate(t *testing.T) {
	g := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}, {1, 2}}}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	bad := &Graph{NumVertices: 2, Edges: []Edge{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	badW := &Graph{NumVertices: 2, Edges: []Edge{{0, 1}}, Weights: []float32{1, 2}}
	if err := badW.Validate(); err == nil {
		t.Error("weight/edge count mismatch accepted")
	}
	neg := &Graph{NumVertices: -1}
	if err := neg.Validate(); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestDegrees(t *testing.T) {
	g := &Graph{NumVertices: 4, Edges: []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 3}}}
	out := g.OutDegrees()
	in := g.InDegrees()
	wantOut := []uint32{2, 1, 0, 1}
	wantIn := []uint32{0, 1, 2, 1}
	for v := range wantOut {
		if out[v] != wantOut[v] {
			t.Errorf("out-degree(%d) = %d, want %d", v, out[v], wantOut[v])
		}
		if in[v] != wantIn[v] {
			t.Errorf("in-degree(%d) = %d, want %d", v, in[v], wantIn[v])
		}
	}
}

func TestWeightDefault(t *testing.T) {
	g := &Graph{NumVertices: 2, Edges: []Edge{{0, 1}}}
	if got := g.Weight(0); got != 1 {
		t.Errorf("unweighted Weight(0) = %v, want 1", got)
	}
	g.Weights = []float32{2.5}
	if got := g.Weight(0); got != 2.5 {
		t.Errorf("weighted Weight(0) = %v, want 2.5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}}, Weights: []float32{1}}
	c := g.Clone()
	c.Edges[0] = Edge{2, 2}
	c.Weights[0] = 9
	if g.Edges[0] != (Edge{0, 1}) || g.Weights[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSortEdges(t *testing.T) {
	g := &Graph{
		NumVertices: 4,
		Edges:       []Edge{{2, 1}, {0, 3}, {2, 0}, {0, 1}},
		Weights:     []float32{21, 3, 20, 1},
	}
	g.SortEdges()
	want := []Edge{{0, 1}, {0, 3}, {2, 0}, {2, 1}}
	wantW := []float32{1, 3, 20, 21}
	for i := range want {
		if g.Edges[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, g.Edges[i], want[i])
		}
		if g.Weights[i] != wantW[i] {
			t.Errorf("weight %d = %v, want %v (weights must follow edges)", i, g.Weights[i], wantW[i])
		}
	}
}

func TestBuildCSR(t *testing.T) {
	g := &Graph{NumVertices: 4, Edges: []Edge{{0, 2}, {0, 1}, {2, 3}, {0, 3}}}
	c := BuildCSR(g)
	if got := c.OutDegree(0); got != 3 {
		t.Errorf("OutDegree(0) = %d, want 3", got)
	}
	if got := c.OutDegree(1); got != 0 {
		t.Errorf("OutDegree(1) = %d, want 0", got)
	}
	nbrs := c.Neighbors(0)
	seen := map[VertexID]bool{}
	for _, v := range nbrs {
		seen[v] = true
	}
	for _, want := range []VertexID{1, 2, 3} {
		if !seen[want] {
			t.Errorf("Neighbors(0) missing %d: %v", want, nbrs)
		}
	}
}

// CSR must preserve the multiset of edges, including weights.
func TestCSRPreservesEdges(t *testing.T) {
	g, err := GenerateRMAT(256, 2048, DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	AttachUniformWeights(g, 10, 9)
	c := BuildCSR(g)
	type wedge struct {
		e Edge
		w float32
	}
	count := map[wedge]int{}
	for i, e := range g.Edges {
		count[wedge{e, g.Weights[i]}]++
	}
	for v := 0; v < g.NumVertices; v++ {
		for i := c.Offsets[v]; i < c.Offsets[v+1]; i++ {
			count[wedge{Edge{VertexID(v), c.Targets[i]}, c.Weights[i]}]--
		}
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("edge %v imbalance %d after CSR round trip", k, n)
		}
	}
}

func TestGenerateChain(t *testing.T) {
	g := mustChain(t, 5)
	if g.NumEdges() != 4 {
		t.Fatalf("chain(5) has %d edges, want 4", g.NumEdges())
	}
	for i, e := range g.Edges {
		if int(e.Src) != i || int(e.Dst) != i+1 {
			t.Errorf("chain edge %d = %v", i, e)
		}
	}
	if _, err := GenerateChain(0); err == nil {
		t.Error("GenerateChain(0) should fail")
	}
}

func TestGenerateRMATProperties(t *testing.T) {
	const v, e = 1000, 8000
	g, err := GenerateRMAT(v, e, DefaultRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != v || g.NumEdges() != e {
		t.Fatalf("got |V|=%d |E|=%d, want %d/%d", g.NumVertices, g.NumEdges(), v, e)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	// Determinism.
	g2, err := GenerateRMAT(v, e, DefaultRMAT, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatalf("RMAT not deterministic at edge %d", i)
		}
	}
	// Different seeds should differ.
	g3, _ := GenerateRMAT(v, e, DefaultRMAT, 43)
	same := 0
	for i := range g.Edges {
		if g.Edges[i] == g3.Edges[i] {
			same++
		}
	}
	if same == e {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRMATSkewExceedsUniform(t *testing.T) {
	const v, e = 2048, 16384
	rmat, err := GenerateRMAT(v, e, DefaultRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := GenerateUniform(v, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr := ComputeStats(rmat).GiniOut
	gu := ComputeStats(uni).GiniOut
	if gr <= gu {
		t.Errorf("R-MAT Gini %v not above uniform Gini %v; skew missing", gr, gu)
	}
	if ComputeStats(rmat).MaxOutDeg <= ComputeStats(uni).MaxOutDeg {
		t.Errorf("R-MAT max degree %d not above uniform %d", ComputeStats(rmat).MaxOutDeg, ComputeStats(uni).MaxOutDeg)
	}
}

func TestRMATParamsValidate(t *testing.T) {
	if err := (RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}).Validate(); err == nil {
		t.Error("non-normalized params accepted")
	}
	if err := (RMATParams{A: 1.2, B: -0.2, C: 0, D: 0}).Validate(); err == nil {
		t.Error("negative quadrant accepted")
	}
	if err := (RMATParams{A: 0.25, B: 0.25, C: 0.25, D: 0.25, Noise: 0.9}).Validate(); err == nil {
		t.Error("excessive noise accepted")
	}
	// NaN fails every comparison, so a range check must be written to
	// fail on it: the R-MAT pick needs finite quadrant masses.
	if err := (RMATParams{A: math.NaN(), B: 0.2, C: 0.2, D: 0.1}).Validate(); err == nil {
		t.Error("NaN quadrant accepted")
	}
	if err := (RMATParams{A: 0.25, B: 0.25, C: 0.25, D: 0.25, Noise: math.NaN()}).Validate(); err == nil {
		t.Error("NaN noise accepted")
	}
	if err := DefaultRMAT.Validate(); err != nil {
		t.Errorf("DefaultRMAT invalid: %v", err)
	}
}

func TestGenerateUniform(t *testing.T) {
	g, err := GenerateUniform(100, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 500 {
		t.Fatalf("got %d edges", g.NumEdges())
	}
	if _, err := GenerateUniform(0, 5, 3); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := GenerateUniform(10, -1, 3); err == nil {
		t.Error("negative edge count accepted")
	}
}

func TestAttachUniformWeights(t *testing.T) {
	g := mustChain(t, 10)
	AttachUniformWeights(g, 4, 5)
	if len(g.Weights) != g.NumEdges() {
		t.Fatalf("weights len %d, edges %d", len(g.Weights), g.NumEdges())
	}
	for i, w := range g.Weights {
		if w <= 0 || w > 4 {
			t.Errorf("weight %d = %v out of (0,4]", i, w)
		}
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		n := r.Intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed produced zero state")
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(4).Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 5 {
		t.Fatalf("want 5 datasets, got %d", len(Datasets))
	}
	for _, d := range Datasets {
		if d.GenVertices() <= 0 || d.GenEdges() <= 0 {
			t.Errorf("%s: non-positive generated sizes", d.Name)
		}
		wantRatio := float64(d.FullEdges) / float64(d.FullVertices)
		gotRatio := float64(d.GenEdges()) / float64(d.GenVertices())
		if gotRatio < wantRatio*0.98 || gotRatio > wantRatio*1.02 {
			t.Errorf("%s: |E|/|V| ratio drifted: full %v, generated %v", d.Name, wantRatio, gotRatio)
		}
		if err := d.RMAT.Validate(); err != nil {
			t.Errorf("%s: bad RMAT params: %v", d.Name, err)
		}
	}
	if _, err := DatasetByName("YT"); err != nil {
		t.Errorf("DatasetByName(YT): %v", err)
	}
	if _, err := DatasetByName("com-youtube"); err != nil {
		t.Errorf("DatasetByName(com-youtube): %v", err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetLoadMemoizes(t *testing.T) {
	d := Datasets[0]
	a, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Load did not memoize")
	}
	if a.NumEdges() != d.GenEdges() {
		t.Errorf("loaded %d edges, want %d", a.NumEdges(), d.GenEdges())
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); g > 1e-9 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	// One vertex owns everything: gini → (n-1)/n.
	if g := gini([]int{0, 0, 0, 12}); g < 0.74 || g > 0.76 {
		t.Errorf("concentrated gini = %v, want 0.75", g)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("empty gini = %v", g)
	}
	if g := gini([]int{0, 0}); g != 0 {
		t.Errorf("all-zero gini = %v", g)
	}
}

func TestGiniBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v)
		}
		g := gini(xs)
		return g >= -1e-9 && g <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	// degrees: v0=3 (bucket 2: [2,4)), v1=1 (bucket 1), v2=0 (bucket 0)
	g := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}, {0, 2}, {0, 0}, {1, 2}}}
	h := DegreeHistogram(g)
	want := []int{1, 1, 1}
	if len(h) != len(want) {
		t.Fatalf("hist = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist = %v, want %v", h, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := &Graph{NumVertices: 3, Edges: []Edge{{0, 1}, {0, 2}, {2, 2}}}
	s := ComputeStats(g)
	if s.SelfLoops != 1 {
		t.Errorf("self-loops = %d, want 1", s.SelfLoops)
	}
	if s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Errorf("max degrees = %d/%d, want 2/2", s.MaxOutDeg, s.MaxInDeg)
	}
	if s.AvgDegree != 1 {
		t.Errorf("avg degree = %v, want 1", s.AvgDegree)
	}
	empty := ComputeStats(&Graph{})
	if empty.NumVertices != 0 || empty.AvgDegree != 0 {
		t.Error("empty graph stats non-zero")
	}
}

func TestGiniInCapturesInSkew(t *testing.T) {
	// A star into vertex 0: out-degrees uniform (1 each), in-degree all
	// on one vertex.
	g := &Graph{NumVertices: 10}
	for v := 1; v < 10; v++ {
		g.Edges = append(g.Edges, Edge{Src: VertexID(v), Dst: 0})
	}
	s := ComputeStats(g)
	if s.GiniIn <= s.GiniOut {
		t.Errorf("star graph: GiniIn %v not above GiniOut %v", s.GiniIn, s.GiniOut)
	}
	pa, err := GeneratePreferentialAttachment(2000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := ComputeStats(pa)
	if ps.GiniIn < 0.3 {
		t.Errorf("preferential attachment GiniIn %v implausibly low", ps.GiniIn)
	}
}

// OutDegrees is computed once per graph and shared: repeated calls must
// return the same backing slice, concurrent first calls must be
// race-clean, and a Clone must get its own fresh memo.
func TestOutDegreesMemoized(t *testing.T) {
	g := &Graph{NumVertices: 4, Edges: []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 3}}}
	first := g.OutDegrees()
	if &first[0] != &g.OutDegrees()[0] {
		t.Error("repeated OutDegrees calls returned distinct slices")
	}

	fresh := &Graph{NumVertices: 64, Edges: mustChain(t, 64).Edges}
	var wg sync.WaitGroup
	got := make([][]uint32, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fresh.OutDegrees()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("concurrent call %d got a different slice", i)
		}
	}
	for v := 0; v < 63; v++ {
		if got[0][v] != 1 {
			t.Fatalf("chain out-degree(%d) = %d, want 1", v, got[0][v])
		}
	}

	c := g.Clone()
	if &c.OutDegrees()[0] == &first[0] {
		t.Error("Clone shares the out-degree memo with the original")
	}
}

// A weighted sibling shares its parent's edge array, so it shares the
// out-degree array too: whichever asks first scans the edges, and the
// other gets the same backing array, not a second copy.
func TestOutDegreesSharedWithWeightedSibling(t *testing.T) {
	g := &Graph{NumVertices: 64, Edges: mustChain(t, 64).Edges}
	sib := g.WithUniformWeights(8, 1)
	if &sib.OutDegrees()[0] != &g.OutDegrees()[0] {
		t.Error("weighted sibling scanned its own out-degree array")
	}
	other := g.WithUniformWeights(8, 2)
	if &g.OutDegrees()[0] != &other.OutDegrees()[0] {
		t.Error("second sibling scanned its own out-degree array")
	}
}
