package partition

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The count pass must return exactly the block offsets BuildParallel
// lays out, for both assigners, power-of-two and ragged interval
// counts, every worker count, graphs with empty blocks and an edgeless
// one, and refuse what BuildParallel refuses. The large R-MAT graph is
// big enough to split into four chunks.
func TestBlockOffsetsMatchBuild(t *testing.T) {
	large, err := graph.GenerateRMAT(4096, 1<<16, graph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := graph.GenerateChain(300) // most blocks stay empty
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", testGraph(t)}, {"rmat-large", large}, {"chain", chain}, {"edgeless", &graph.Graph{NumVertices: 64}}} {
		for _, p := range []int{8, 7, 24, 40} {
			for name, a := range assigners(t, tc.g.NumVertices, p) {
				grid, err := BuildParallel(tc.g, a, 1)
				if err != nil {
					t.Fatal(err)
				}
				for workers := 1; workers <= 4; workers++ {
					got, err := BlockOffsets(tc.g, a, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, grid.offsets) {
						t.Fatalf("%s/%s P=%d workers=%d: count pass offsets differ from the build's",
							tc.name, name, p, workers)
					}
				}
			}
		}
	}

	// Refusals: more blocks than an int32 id addresses, and an assigner
	// built for another vertex count.
	const p = 46341 // the first P with P² > MaxInt32
	g := &graph.Graph{NumVertices: p}
	a, err := NewHashed(p, p)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := NewHashed(2*p, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assigner{a, mismatched} {
		if _, err := BuildParallel(g, a, 1); err == nil {
			t.Fatalf("BuildParallel accepted P=%d over %d vertices", a.P(), a.NumVertices())
		}
		if _, err := BlockOffsets(g, a, 1); err == nil {
			t.Errorf("BlockOffsets accepted P=%d over %d vertices", a.P(), a.NumVertices())
		}
		if _, err := SharedBlockOffsets(g, a, 1); err == nil {
			t.Errorf("SharedBlockOffsets accepted P=%d over %d vertices", a.P(), a.NumVertices())
		}
	}
}

// A graph and its weighted sibling alias one edge array, so they share
// one memoized offsets entry per (P, assigner kind); a second kind or P
// gets its own.
func TestSharedBlockOffsetsOneEntryPerEdgeArray(t *testing.T) {
	g := testGraph(t)
	w := g.WithUniformWeights(8, 1)
	entry := func(g *graph.Graph, a Assigner) *int64 {
		t.Helper()
		off, err := SharedBlockOffsets(g, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &off[0]
	}
	as := assigners(t, g.NumVertices, 8)
	h, c := as["hashed"], as["contiguous"]
	h2, err := NewHashed(g.NumVertices, 8) // equal, built separately
	if err != nil {
		t.Fatal(err)
	}
	if entry(g, h) != entry(w, h2) {
		t.Error("a graph and its weighted sibling hold separate entries for one P")
	}
	if entry(g, h) == entry(g, c) {
		t.Error("hashed and contiguous assigners share an entry")
	}
	h16, err := NewHashed(g.NumVertices, 16)
	if err != nil {
		t.Fatal(err)
	}
	if entry(w, h16) == entry(g, h) {
		t.Error("two interval counts share an entry")
	}
	if entry(g.Clone(), h) == entry(g, h) {
		t.Error("a clone, which owns a fresh edge array, shares its source's entry")
	}
}

// FuzzBlockOffsets derives a small graph, an interval count and an
// assigner kind from the input and requires the count pass to equal
// BuildParallel's offsets.
func FuzzBlockOffsets(f *testing.F) {
	f.Add(uint16(16), uint8(4), false, []byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add(uint16(9), uint8(3), true, []byte{0, 0, 4, 4, 8, 8, 0, 8})
	f.Add(uint16(1), uint8(1), false, []byte{})
	f.Add(uint16(100), uint8(7), true, []byte{99, 0, 0, 99, 50, 50, 13, 77, 1})
	f.Fuzz(func(t *testing.T, nv uint16, p uint8, contiguous bool, data []byte) {
		n := int(nv)%512 + 1
		np := int(p)%n + 1
		g := &graph.Graph{NumVertices: n}
		for i := 0; i+1 < len(data); i += 2 {
			g.Edges = append(g.Edges, graph.Edge{Src: uint32(data[i]) % uint32(n), Dst: uint32(data[i+1]) % uint32(n)})
		}
		var a Assigner
		var err error
		if contiguous {
			a, err = NewContiguous(n, np)
		} else {
			a, err = NewHashed(n, np)
		}
		if err != nil {
			t.Fatal(err)
		}
		grid, err := BuildParallel(g, a, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BlockOffsets(g, a, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, grid.offsets) {
			t.Fatalf("V=%d P=%d contiguous=%v: count pass %v, build %v", n, np, contiguous, got, grid.offsets)
		}
	})
}
