package partition

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func streamTestGraph(t *testing.T, weighted bool) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(1<<11, 120_000, graph.RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.05}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		graph.AttachUniformWeights(g, 8, 3)
	}
	return g
}

// TestStreamBuildMatchesBuildParallel pins the tentpole identity: the
// bounded-memory streaming builder produces byte-for-byte the layout of
// the in-memory build, at budgets small enough to force many spilled
// runs, for both assigner families and weighted/unweighted graphs.
func TestStreamBuildMatchesBuildParallel(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := streamTestGraph(t, weighted)
		for _, mk := range []struct {
			name string
			make func() (Assigner, error)
		}{
			{"hashed", func() (Assigner, error) { return NewHashed(g.NumVertices, 8) }},
			{"contiguous", func() (Assigner, error) { return NewContiguous(g.NumVertices, 8) }},
		} {
			a, err := mk.make()
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildParallel(g, a, 0)
			if err != nil {
				t.Fatal(err)
			}
			// 1 MiB floor budget → ~43k-entry runs → 3 spilled runs.
			got, closer, err := StreamBuild(g, a, StreamOptions{BudgetBytes: 1, TmpDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s/weighted=%v: %v", mk.name, weighted, err)
			}
			gridsIdentical(t, "stream-spill", got, want)
			if err := closer(); err != nil {
				t.Errorf("closer: %v", err)
			}
			// And at a budget that keeps everything in one in-memory run.
			got2, closer2, err := StreamBuild(g, a, StreamOptions{TmpDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			gridsIdentical(t, "stream-mem", got2, want)
			if err := closer2(); err != nil {
				t.Errorf("closer: %v", err)
			}
		}
	}
}

// TestStreamGridIntoContainer writes grid sections through a V2Writer
// and checks a loaded container (a) carries the exact BuildParallel
// layout and (b) satisfies the prepared fast path, returning the stored
// layout without rebuilding.
func TestStreamGridIntoContainer(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := streamTestGraph(t, weighted)
		a, err := NewHashed(g.NumVertices, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildParallel(g, a, 0)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "g.hyve2")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := graph.NewV2Writer(f, g.NumVertices, len(g.Edges))
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteV2Into(w, g, 0); err != nil {
			t.Fatal(err)
		}
		if err := StreamGridInto(w, g, a, StreamOptions{BudgetBytes: 1, TmpDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		c, err := graph.OpenV2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.GridP() != 8 {
			t.Fatalf("GridP = %d, want 8", c.GridP())
		}

		// Direct section verification.
		off, edges, wts, p, contig, ok := c.GridParts()
		if !ok || p != 8 || contig {
			t.Fatalf("GridParts: ok=%v p=%d contig=%v", ok, p, contig)
		}
		stored, err := GridFromParts(a, off, edges, wts)
		if err != nil {
			t.Fatal(err)
		}
		gridsIdentical(t, "stored", stored, want)

		// Fast path: building from the container's graph must return the
		// stored layout (aliased) for the matching assigner...
		fast, err := BuildParallel(c.Graph(), a, 0)
		if err != nil {
			t.Fatal(err)
		}
		gridsIdentical(t, "fastpath", fast, want)
		if len(fast.edges) > 0 && len(stored.edges) > 0 && &fast.edges[0] != &stored.edges[0] {
			t.Errorf("fast path did not alias the stored grid")
		}
		// ...and must NOT trigger for a different P or family.
		a4, err := NewHashed(g.NumVertices, 4)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := BuildParallel(c.Graph(), a4, 0)
		if err != nil {
			t.Fatal(err)
		}
		want4, err := BuildParallel(g, a4, 0)
		if err != nil {
			t.Fatal(err)
		}
		gridsIdentical(t, "rebuilt-p4", rebuilt, want4)
	}
}

// TestStreamGridIntoRejectsCustomAssigner: the container header can
// only name the two production families.
func TestStreamGridIntoRejectsCustomAssigner(t *testing.T) {
	g := streamTestGraph(t, false)
	f, err := os.Create(filepath.Join(t.TempDir(), "g.hyve2"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := graph.NewV2Writer(f, g.NumVertices, len(g.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamGridInto(w, g, customAssigner{n: g.NumVertices}, StreamOptions{}); err == nil {
		t.Fatal("custom assigner accepted for container grid sections")
	}
}

type customAssigner struct{ n int }

func (c customAssigner) NumVertices() int                { return c.n }
func (c customAssigner) P() int                          { return 4 }
func (c customAssigner) IntervalOf(v graph.VertexID) int { return int(v) % 4 }
func (c customAssigner) IndexWithin(v graph.VertexID) int {
	return int(v) / 4
}
func (c customAssigner) IntervalLen(i int) int { return (c.n + 3 - i) / 4 }
func (c customAssigner) VertexAt(interval, index int) graph.VertexID {
	return graph.VertexID(index*4 + interval)
}
