package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cpusim"
	"repro/internal/device/crossbar"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/units"
)

// priceGraph is 16 vertices with two edges in block (0,0) of a
// contiguous 2×2 grid (intervals of 8) and of the 8×8 GraphR grid.
func priceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := &graph.Graph{NumVertices: 16, Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// priceStream walks both stores through every charge: appends into
// and beyond a block's slack, a delete that moves the last edge, one
// that empties a block, and a vertex add that re-preprocesses.
func priceStream() []dynamic.Request {
	add := func(s, d graph.VertexID) dynamic.Request {
		return dynamic.Request{Kind: dynamic.AddEdge, Edge: graph.Edge{Src: s, Dst: d}}
	}
	del := func(s, d graph.VertexID) dynamic.Request {
		return dynamic.Request{Kind: dynamic.DeleteEdge, Edge: graph.Edge{Src: s, Dst: d}}
	}
	return []dynamic.Request{
		add(1, 3),  // block (0,0), 3 of 6 slots
		add(9, 10), // block (1,1), 1 of 4 slots
		del(0, 1),  // slot 0 of (0,0): the last edge 1→3 moves into it
		del(9, 10), // the last edge of (1,1): nothing moves, the block empties
		{Kind: dynamic.AddVertex},
		{Kind: dynamic.DeleteVertex, Vertex: 3},
		add(2, 3), add(3, 4), add(4, 5), add(5, 6), // (0,0) fills its 6 slots
		add(6, 7), // and links an overflow extent
	}
}

func near(a, b units.Time) bool {
	return math.Abs(float64(a-b)) <= 1e-9*math.Max(1, math.Abs(float64(b)))
}

func TestPriceHyVEByHand(t *testing.T) {
	g := priceGraph(t)
	asg, err := partition.NewContiguous(g.NumVertices, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Slack 0: block (0,0) reserves 2+4 slots, the others 4, and no
	// vertex id is spare, so the first AddVertex re-preprocesses.
	s, err := dynamic.NewHyVEStore(g, asg, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PriceHyVE(s, priceStream())
	if err != nil {
		t.Fatal(err)
	}
	if s.Overflows != 1 || s.MovedLastEdge != 1 || s.Repreprocess != 1 {
		t.Fatalf("overflows %d, moved %d, re-preprocess %d; want 1, 1, 1",
			s.Overflows, s.MovedLastEdge, s.Repreprocess)
	}
	edge, err := rram.New(rram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vertex, err := dram.New(dram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, r, wv := edge.Write(false).Latency, edge.Read(false).Latency, vertex.Write(false).Latency
	// The ReRAM edge chip's random write: a 10 ns set pulse and one bank
	// period of 1.983 ns, plus two more periods to re-drive the decode.
	if !near(w, units.Time(15.949*float64(units.Nanosecond))) || !near(r, units.Time(29.31*float64(units.Nanosecond))) {
		t.Fatalf("ReRAM random write %v, read %v; want 15.949 ns, 29.31 ns", w, r)
	}
	// The re-preprocess streams the two live edges, one 64-byte line,
	// out and back.
	sweep := edge.Read(true).Latency + edge.Write(true).Latency
	wantKinds := [4]KindCost{
		dynamic.AddEdge:      {Requests: 7, Changed: 7, Time: 8 * w},      // 7 slots and 1 link
		dynamic.DeleteEdge:   {Requests: 2, Changed: 2, Time: 3*w + r},    // 2 tails, 1 moved edge
		dynamic.AddVertex:    {Requests: 1, Changed: 1, Time: wv + sweep}, // its value, the re-preprocess
		dynamic.DeleteVertex: {Requests: 1, Changed: 1, Time: wv},         // its invalid mark
	}
	for k, got := range c.Kinds {
		if got.Requests != wantKinds[k].Requests || got.Changed != wantKinds[k].Changed || !near(got.Time, wantKinds[k].Time) {
			t.Errorf("%v: %+v, want %+v", dynamic.RequestKind(k), got, wantKinds[k])
		}
	}
	if got := c.Kinds[dynamic.DeleteEdge].Time.Nanoseconds(); math.Abs(got-77.157) > 1e-9 {
		t.Errorf("delete-edge time %v ns, want 3×15.949 + 29.31 = 77.157", got)
	}
	total := c.Total()
	if total.Changed != 11 || !near(total.Time, 11*w+r+2*wv+sweep) {
		t.Errorf("total %+v", total)
	}
	if rate := c.MillionEdgesPerSecond(); math.Abs(rate-11/total.Time.Seconds()/1e6) > 1e-9 {
		t.Errorf("rate %v M edges/s", rate)
	}
}

func TestPriceGraphRByHand(t *testing.T) {
	g := priceGraph(t)
	s, err := dynamic.NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PriceGraphR(s, priceStream())
	if err != nil {
		t.Fatal(err)
	}
	// Every add rewrites its block; the delete from (0,0) rewrites it,
	// the one that empties (1,1) drops it without a rewrite.
	if s.Rewrites != 8 {
		t.Fatalf("rewrites %d, want 8", s.Rewrites)
	}
	xbar, err := crossbar.New(crossbar.GraphRParams())
	if err != nil {
		t.Fatal(err)
	}
	global, err := rram.New(rram.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A rewrite programs the block's 64 cells at 50.88 ns each.
	rewrite := xbar.ProgramBlock(64).Latency
	if !near(rewrite, units.Time(3256.32*float64(units.Nanosecond))) {
		t.Fatalf("rewrite %v, want 64 × 50.88 ns", rewrite)
	}
	wg := global.Write(false).Latency
	wantKinds := [4]KindCost{
		dynamic.AddEdge:      {Requests: 7, Changed: 7, Time: 7 * rewrite},
		dynamic.DeleteEdge:   {Requests: 2, Changed: 2, Time: rewrite},
		dynamic.AddVertex:    {Requests: 1, Changed: 1, Time: wg},
		dynamic.DeleteVertex: {Requests: 1, Changed: 1, Time: wg},
	}
	for k, got := range c.Kinds {
		if got.Requests != wantKinds[k].Requests || got.Changed != wantKinds[k].Changed || !near(got.Time, wantKinds[k].Time) {
			t.Errorf("%v: %+v, want %+v", dynamic.RequestKind(k), got, wantKinds[k])
		}
	}
}

func TestPreprocessingPassesByHand(t *testing.T) {
	// 1000 edges into 64×64 blocks: 8 KB read twice and written once,
	// 3 accesses per edge, the 4096 cursors' counts (32 KiB) and their
	// open lines (4096 × 72 B = 288 KiB).
	want := []cpusim.Pass{
		{SeqBytes: 8000, Random: 1000, WorkingSet: 32768},
		{SeqBytes: 32768},
		{SeqBytes: 16000, Random: 2000, WorkingSet: 294912},
	}
	if got := countingSortPasses(1000, 64); !reflect.DeepEqual(got, want) {
		t.Errorf("counting sort: %+v, want %+v", got, want)
	}
	// GraphR: 1000 edges into 700 blocks, one probe and one append each,
	// over 700 × (16 + 64) B.
	want = []cpusim.Pass{{SeqBytes: 16000, Random: 2000, WorkingSet: 56000}}
	if got := blockBucketingPasses(1000, 700); !reflect.DeepEqual(got, want) {
		t.Errorf("bucketing: %+v, want %+v", got, want)
	}
}

// Fig. 20's shape: on the same request stream, the HyVE layout's priced
// update rate is above the GraphR layout's.
func TestHyVEFasterThanGraphROnUpdates(t *testing.T) {
	g, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := dynamic.GenerateRequests(g, 50_000, dynamic.PaperMix, 9)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := partition.NewHashed(g.NumVertices, 8)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dynamic.NewHyVEStore(g, asg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	hv, err := PriceHyVE(hs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := dynamic.NewGraphRStore(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := PriceGraphR(gs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if h, r := hv.MillionEdgesPerSecond(), gr.MillionEdgesPerSecond(); h <= r || r <= 0 {
		t.Errorf("HyVE %.3f M edges/s not above GraphR %.3f", h, r)
	}
}
