package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(1024, 8192, graph.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assigners(t *testing.T, v, p int) map[string]Assigner {
	t.Helper()
	c, err := NewContiguous(v, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHashed(v, p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Assigner{"contiguous": c, "hashed": h}
}

// Every assigner must form a bijection between vertices and
// (interval, index) pairs with indices dense within interval lengths.
func TestAssignerBijection(t *testing.T) {
	const v, p = 1000, 7
	for name, a := range assigners(t, v, p) {
		t.Run(name, func(t *testing.T) {
			seen := map[[2]int]bool{}
			for vid := 0; vid < v; vid++ {
				iv := a.IntervalOf(graph.VertexID(vid))
				ix := a.IndexWithin(graph.VertexID(vid))
				if iv < 0 || iv >= p {
					t.Fatalf("vertex %d: interval %d out of range", vid, iv)
				}
				if ix < 0 || ix >= a.IntervalLen(iv) {
					t.Fatalf("vertex %d: index %d out of interval %d len %d", vid, ix, iv, a.IntervalLen(iv))
				}
				key := [2]int{iv, ix}
				if seen[key] {
					t.Fatalf("vertex %d: duplicate (interval,index) %v", vid, key)
				}
				seen[key] = true
				if back := a.VertexAt(iv, ix); back != graph.VertexID(vid) {
					t.Fatalf("VertexAt(%d,%d) = %d, want %d", iv, ix, back, vid)
				}
			}
			// Interval lengths must sum to the vertex count.
			total := 0
			for i := 0; i < p; i++ {
				total += a.IntervalLen(i)
			}
			if total != v {
				t.Fatalf("interval lengths sum to %d, want %d", total, v)
			}
		})
	}
}

func TestAssignerArgValidation(t *testing.T) {
	if _, err := NewContiguous(0, 4); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := NewContiguous(10, 0); err == nil {
		t.Error("zero intervals accepted")
	}
	if _, err := NewHashed(4, 10); err == nil {
		t.Error("p > V accepted")
	}
}

func TestGridPartitionInvariant(t *testing.T) {
	g := testGraph(t)
	for name, a := range assigners(t, g.NumVertices, 8) {
		t.Run(name, func(t *testing.T) {
			gr, err := Build(g, a)
			if err != nil {
				t.Fatal(err)
			}
			// Every edge in exactly one block, in the right block.
			total := 0
			for x := 0; x < gr.P(); x++ {
				for y := 0; y < gr.P(); y++ {
					blk := gr.Block(x, y)
					total += len(blk)
					for _, e := range blk {
						if a.IntervalOf(e.Src) != x || a.IntervalOf(e.Dst) != y {
							t.Fatalf("edge %v misplaced in block (%d,%d)", e, x, y)
						}
					}
					if gr.BlockLen(x, y) != len(blk) {
						t.Fatalf("BlockLen mismatch at (%d,%d)", x, y)
					}
				}
			}
			if total != g.NumEdges() {
				t.Fatalf("blocks hold %d edges, graph has %d", total, g.NumEdges())
			}
		})
	}
}

func TestBuildRejectsMismatchedAssigner(t *testing.T) {
	g := testGraph(t)
	a, err := NewContiguous(g.NumVertices*2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, a); err == nil {
		t.Error("mismatched assigner accepted by Build")
	}
}

func TestBlockOffsetsAreSequential(t *testing.T) {
	g := testGraph(t)
	a, _ := NewHashed(g.NumVertices, 8)
	gr, err := Build(g, a)
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd int64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			off := gr.BlockOffset(x, y)
			if off != prevEnd {
				t.Fatalf("block (%d,%d) starts at %d, previous ended at %d", x, y, off, prevEnd)
			}
			prevEnd = off + int64(gr.BlockLen(x, y))
		}
	}
	if prevEnd != int64(g.NumEdges()) {
		t.Fatalf("last block ends at %d, want %d", prevEnd, g.NumEdges())
	}
}

// Hash partitioning must balance destination-interval workload much
// better than contiguous partitioning on a skewed graph.
func TestHashedBalancesBetterThanContiguous(t *testing.T) {
	g := testGraph(t)
	imbalance := func(a Assigner) float64 {
		gr, err := Build(g, a)
		if err != nil {
			t.Fatal(err)
		}
		counts := gr.IntervalEdgeCounts()
		var max, sum int64
		for _, c := range counts {
			if c > max {
				max = c
			}
			sum += c
		}
		if sum != int64(g.NumEdges()) {
			t.Fatalf("interval counts sum to %d, want %d", sum, g.NumEdges())
		}
		return float64(max) * float64(len(counts)) / float64(sum)
	}
	as := assigners(t, g.NumVertices, 8)
	ci := imbalance(as["contiguous"])
	hi := imbalance(as["hashed"])
	if hi >= ci {
		t.Errorf("hashed imbalance %.3f not below contiguous %.3f", hi, ci)
	}
}

func TestComputeOccupancySmall(t *testing.T) {
	// 2-vertex-wide intervals; edges land in 3 distinct blocks.
	g := &graph.Graph{NumVertices: 8, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, // block (0,0)
		{Src: 1, Dst: 0}, // block (0,0)
		{Src: 2, Dst: 3}, // block (1,1)
		{Src: 7, Dst: 0}, // block (3,0)
	}}
	occ, err := ComputeOccupancy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if occ.NonEmpty != 3 {
		t.Errorf("non-empty = %d, want 3", occ.NonEmpty)
	}
	if occ.AvgEdgesPerBlk != 4.0/3.0 {
		t.Errorf("Navg = %v, want 4/3", occ.AvgEdgesPerBlk)
	}
	if occ.MaxEdgesPerBlk != 2 {
		t.Errorf("max = %d, want 2", occ.MaxEdgesPerBlk)
	}
	if _, err := ComputeOccupancy(g, 0); err == nil {
		t.Error("zero interval width accepted")
	}
}

// Navg for 8×8 blocks on natural-like graphs is small (paper Table 1:
// 1.23–2.38) despite 64 possible slots — the sparsity argument against
// crossbar processing.
func TestOccupancyNavgIsSmallOnSkewedGraphs(t *testing.T) {
	for _, d := range graph.Datasets[:3] { // small three are near-full-scale
		g, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		occ, err := ComputeOccupancy(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		if occ.AvgEdgesPerBlk < 1 || occ.AvgEdgesPerBlk > 8 {
			t.Errorf("%s: Navg = %.2f, expected small (paper range 1.23–2.38)", d.Name, occ.AvgEdgesPerBlk)
		}
	}
}

func TestChooseP(t *testing.T) {
	// 4 MB SRAM, 4-byte values, 8 PUs: section = 2 MB = 512K vertices.
	p, err := ChooseP(4_850_000, 4<<20, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p%8 != 0 {
		t.Errorf("P = %d not a multiple of N", p)
	}
	// 4.85 M / 512 K ≈ 9.25 → 10 → round to 16.
	if p != 16 {
		t.Errorf("P = %d, want 16", p)
	}
	// Small graph: P floors at N.
	p, err = ChooseP(100, 4<<20, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p != 8 {
		t.Errorf("small-graph P = %d, want 8", p)
	}
	if _, err := ChooseP(0, 1, 1, 1); err == nil {
		t.Error("invalid args accepted")
	}
	if _, err := ChooseP(10, 4, 8, 1); err == nil {
		t.Error("section smaller than a value accepted")
	}
}

func TestChoosePProperties(t *testing.T) {
	f := func(v uint32, sramKB uint16, n uint8) bool {
		verts := int64(v%10_000_000) + 1
		sram := (int(sramKB%4096) + 1) * 1024
		pus := int(n%16) + 1
		p, err := ChooseP(verts, sram, 4, pus)
		if err != nil {
			return true // rejected inputs are fine
		}
		if p%pus != 0 || p < pus {
			return false
		}
		// One interval must fit in a section.
		section := int64(sram / 2 / 4)
		perInterval := (verts + int64(p) - 1) / int64(p)
		return perInterval <= section
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
