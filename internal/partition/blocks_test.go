package partition

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// occupancyByMap is ComputeOccupancy as it stood before the sorted
// keys: one hash-map probe per edge, here keyed by the (bx, by) pair
// itself. It is the oracle of the run count.
func occupancyByMap(g *graph.Graph, intervalVerts int) Occupancy {
	counts := make(map[[2]uint64]int64, len(g.Edges)/2+1)
	for _, e := range g.Edges {
		bx := uint64(e.Src) / uint64(intervalVerts)
		by := uint64(e.Dst) / uint64(intervalVerts)
		counts[[2]uint64{bx, by}]++
	}
	occ := Occupancy{IntervalVerts: intervalVerts, TotalEdges: int64(len(g.Edges))}
	occ.NonEmpty = int64(len(counts))
	for _, c := range counts {
		if c > occ.MaxEdgesPerBlk {
			occ.MaxEdgesPerBlk = c
		}
	}
	if occ.NonEmpty > 0 {
		occ.AvgEdgesPerBlk = float64(occ.TotalEdges) / float64(occ.NonEmpty)
	}
	return occ
}

// blockGraphs are the shapes every block-key consumer is checked on: a
// skewed R-MAT graph, one of parallel edges and self-loops, an edgeless
// one, and the largest vertex space a VertexID names with edges at its
// top ids — where cells of a width that is not a power of two no longer
// pack into 64 bits.
func blockGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rmat, err := graph.GenerateRMAT(4096, 1<<15, graph.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	dups := &graph.Graph{NumVertices: 40}
	for i := 0; i < 600; i++ {
		v := graph.VertexID(i * 7 % 40)
		dups.Edges = append(dups.Edges, graph.Edge{Src: v, Dst: v}, graph.Edge{Src: v % 9, Dst: 39 - v%5})
	}
	const top = math.MaxUint32
	high := &graph.Graph{NumVertices: 1 << 32, Edges: []graph.Edge{
		{Src: top, Dst: top}, {Src: top, Dst: 0}, {Src: 0, Dst: top}, {Src: top - 1, Dst: top - 7},
		{Src: 1 << 31, Dst: 1<<31 - 1}, {Src: top, Dst: top}, {Src: 5, Dst: 3}, {Src: top - 9, Dst: 1 << 30},
		{Src: 3, Dst: 5}, {Src: top - 2, Dst: top - 1}, {Src: 0, Dst: 0},
	}}
	return map[string]*graph.Graph{
		"rmat": rmat, "dups": dups, "edgeless": {NumVertices: 16}, "high": high,
	}
}

// cellOrder is the order SortBlockKeys promises, by comparison.
func cellOrder(w uint64) func(a, b graph.Edge) int {
	return func(a, b graph.Edge) int {
		s, d := uint64(a.Src), uint64(a.Dst)
		s2, d2 := uint64(b.Src), uint64(b.Dst)
		return cmp.Or(cmp.Compare(s/w, s2/w), cmp.Compare(d/w, d2/w), cmp.Compare(s%w, s2%w), cmp.Compare(d%w, d2%w))
	}
}

// requireBlockKeys fails unless k decodes, key by key, to g's edges
// sorted into (bx, by, i, j) order — (bx, by) alone without cells —
// BlockEnd splits the keys exactly where the block changes, and Run
// finds each block's run and none for the blocks around them that no
// edge falls in, the widest coordinates included.
func requireBlockKeys(t *testing.T, name string, g *graph.Graph, width int, cells bool, k *BlockKeys) {
	t.Helper()
	w := uint64(width)
	sorted := slices.Clone(g.Edges)
	slices.SortFunc(sorted, cellOrder(w))
	if len(k.Keys) != len(sorted) {
		t.Fatalf("%s width %d: %d keys for %d edges", name, width, len(k.Keys), len(sorted))
	}
	if !slices.IsSorted(k.Keys) {
		t.Fatalf("%s width %d cells %t: keys not ascending", name, width, cells)
	}
	for n, e := range sorted {
		bx, by := k.Block(k.Keys[n])
		i, j := k.Cell(k.Keys[n])
		wantI, wantJ := uint64(0), uint64(0)
		if cells {
			wantI, wantJ = uint64(e.Src)%w, uint64(e.Dst)%w
		}
		if uint64(bx) != uint64(e.Src)/w || uint64(by) != uint64(e.Dst)/w || uint64(i) != wantI || uint64(j) != wantJ {
			t.Fatalf("%s width %d cells %t: key %d decodes to block (%d,%d) cell (%d,%d), want edge %v",
				name, width, cells, n, bx, by, i, j, e)
		}
	}
	for lo := 0; lo < len(k.Keys); {
		hi := k.BlockEnd(lo)
		bx, by := k.Block(k.Keys[lo])
		for n := lo; n < hi; n++ {
			if x, y := k.Block(k.Keys[n]); x != bx || y != by {
				t.Fatalf("%s width %d: run [%d,%d) holds blocks (%d,%d) and (%d,%d)", name, width, lo, hi, bx, by, x, y)
			}
		}
		if hi < len(k.Keys) {
			if x, y := k.Block(k.Keys[hi]); x == bx && y == by {
				t.Fatalf("%s width %d: run ends at %d inside block (%d,%d)", name, width, hi, bx, by)
			}
		}
		if l, h := k.Run(bx, by); l != lo || h != hi {
			t.Fatalf("%s width %d cells %t: Run(%d,%d) = [%d,%d), want [%d,%d)", name, width, cells, bx, by, l, h, lo, hi)
		}
		lo = hi
	}
	present := map[[2]uint32]bool{}
	for _, key := range k.Keys {
		bx, by := k.Block(key)
		present[[2]uint32{bx, by}] = true
	}
	const top = math.MaxUint32
	probes := [][2]uint32{{0, 0}, {top, top}, {top, 0}, {0, top}}
	for b := range present {
		probes = append(probes, [2]uint32{b[0] + 1, b[1]}, [2]uint32{b[0], b[1] + 1},
			[2]uint32{b[0] - 1, b[1]}, [2]uint32{b[0], b[1] - 1}, [2]uint32{top, b[1]}, [2]uint32{b[0], top})
		if k.blocks == nil && k.byBits < 32 {
			// The narrowest coordinate a packed key cannot hold.
			wide := uint32(1) << k.byBits
			probes = append(probes, [2]uint32{b[0], wide}, [2]uint32{wide, b[1]})
		}
	}
	for _, b := range probes {
		if l, h := k.Run(b[0], b[1]); !present[b] && l != h {
			t.Fatalf("%s width %d cells %t: Run(%d,%d) = [%d,%d) for a block no edge falls in",
				name, width, cells, b[0], b[1], l, h)
		}
	}
}

// Keys sort and decode to the comparison order for every crossbar
// dimension with cells, and for occupancy widths without; on the top
// ids, dims 3, 5, 6 and 7 take the comparison fallback and the others
// pack.
func TestSortBlockKeysMatchesComparisonSort(t *testing.T) {
	for name, g := range blockGraphs(t) {
		for dim := 1; dim <= 8; dim++ {
			k := SortBlockKeys(g.Edges, dim, true)
			requireBlockKeys(t, name, g, dim, true, k)
			if fallback := k.blocks != nil; name == "high" && fallback != (dim&(dim-1) != 0) {
				t.Errorf("high dim %d: comparison fallback %t", dim, fallback)
			}
		}
		for _, width := range []int{1, 3, 7, 8, 64, 256, 1 << 20, 1 << 32, 1<<32 + 3, math.MaxInt} {
			k := SortBlockKeys(g.Edges, width, false)
			if k.blocks != nil {
				t.Errorf("%s width %d: keys without cells fell back to comparison", name, width)
			}
			requireBlockKeys(t, name, g, width, false, k)
		}
	}
}

func TestSortBlockKeysRejectsWidths(t *testing.T) {
	for _, tc := range []struct {
		width int
		cells bool
	}{{0, false}, {-8, false}, {0, true}, {9, true}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d cells %t accepted", tc.width, tc.cells)
				}
			}()
			SortBlockKeys(nil, tc.width, tc.cells)
		}()
	}
}

// The radix sort equals a comparison sort at every key width, digit
// split included: 1–64 significant bits, with duplicates and with a
// digit that is the same in every key.
func TestRadixSort(t *testing.T) {
	rng := graph.NewRNG(24)
	for nbits := uint(1); nbits <= 64; nbits++ {
		for _, n := range []int{0, 1, 2, 3, 1000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> (64 - nbits)
				if i%3 == 0 {
					keys[i] &^= 0xF0 // a digit range shared by many keys
				}
				if i%5 == 0 && i > 0 {
					keys[i] = keys[i-1]
				}
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := RadixSort(keys, make([]uint64, n), nbits)
			if !slices.Equal(got, want) {
				t.Fatalf("%d bits, %d keys: radix order differs from slices.Sort", nbits, n)
			}
		}
	}
}

// ComputeOccupancy's run count equals the map loop it replaced, at
// widths down to one vertex and beyond the vertex count.
func TestComputeOccupancyMatchesMap(t *testing.T) {
	for name, g := range blockGraphs(t) {
		for _, width := range []int{1, 3, 7, 8, 64, g.NumVertices + 1} {
			got, err := ComputeOccupancy(g, width)
			if err != nil {
				t.Fatal(err)
			}
			if want := occupancyByMap(g, width); got != want {
				t.Errorf("%s width %d: occupancy %+v, map loop %+v", name, width, got, want)
			}
		}
	}
}

// A weighted sibling shares its parent's edge array and with it the
// memoized count, and each width keeps its own entry.
func TestComputeOccupancyMemoizedPerWidth(t *testing.T) {
	g := blockGraphs(t)["rmat"]
	occ8, err := ComputeOccupancy(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	occ3, err := ComputeOccupancy(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if occ8 != occupancyByMap(g, 8) || occ3 != occupancyByMap(g, 3) {
		t.Fatalf("widths 8 and 3 collided: %+v, %+v", occ8, occ3)
	}
	sib := g.WithUniformWeights(16, 3)
	v, err := sib.EdgeMemo(occupancyKey(8), func() (any, error) {
		t.Error("the weighted sibling recounted width 8")
		return Occupancy{}, nil
	})
	if err != nil || v.(Occupancy) != occ8 {
		t.Errorf("sibling's memoized width 8 = %+v (err %v), parent counted %+v", v, err, occ8)
	}
	if got, err := ComputeOccupancy(sib, 3); err != nil || got != occ3 {
		t.Errorf("sibling's width 3 = %+v (err %v), parent counted %+v", got, err, occ3)
	}

	// Concurrent first calls of a new width, through the parent and the
	// sibling, share one count.
	want := occupancyByMap(g, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(h *graph.Graph) {
			defer wg.Done()
			if got, err := ComputeOccupancy(h, 5); err != nil || got != want {
				t.Errorf("concurrent width 5 = %+v (err %v), map loop %+v", got, err, want)
			}
		}([]*graph.Graph{g, sib}[w%2])
	}
	wg.Wait()
}

// FuzzOccupancy checks the run count against the map loop on arbitrary
// edge lists and widths, optionally moved to the top of the id space.
func FuzzOccupancy(f *testing.F) {
	f.Add(uint32(8), false, []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 1})
	f.Add(uint32(3), true, []byte{255, 255, 0, 255, 7, 7})
	f.Add(uint32(1), false, []byte{})
	f.Add(uint32(1<<31), true, []byte{1, 2, 200, 100, 9})
	f.Fuzz(func(t *testing.T, width uint32, high bool, data []byte) {
		if width == 0 {
			return
		}
		var base graph.VertexID
		if high {
			base = math.MaxUint32 - 255
		}
		g := &graph.Graph{NumVertices: 1 << 32}
		for i := 0; i+1 < len(data); i += 2 {
			g.Edges = append(g.Edges, graph.Edge{Src: base + uint32(data[i]), Dst: base + uint32(data[i+1])})
		}
		got, err := ComputeOccupancy(g, int(width))
		if err != nil {
			t.Fatal(err)
		}
		if want := occupancyByMap(g, int(width)); got != want {
			t.Fatalf("width %d: occupancy %+v, map loop %+v", width, got, want)
		}
		requireBlockKeys(t, "fuzz", g, int(width), false, SortBlockKeys(g.Edges, int(width), false))
		dim := int(width%8) + 1
		requireBlockKeys(t, "fuzz", g, dim, true, SortBlockKeys(g.Edges, dim, true))
	})
}
