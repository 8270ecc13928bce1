package graph

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeV2Temp writes g into a fresh temp container and returns its path.
func writeV2Temp(t *testing.T, g *Graph, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hyve2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, seed); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rmat, err := GenerateRMAT(1<<10, 1<<13, RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}, 42)
	if err != nil {
		t.Fatal(err)
	}
	weighted := rmat.Clone()
	AttachUniformWeights(weighted, 8, 7)
	chain, err := GenerateChain(5)
	if err != nil {
		t.Fatal(err)
	}
	single := &Graph{NumVertices: 1, Edges: []Edge{{0, 0}}}
	return map[string]*Graph{
		"rmat":     rmat,
		"weighted": weighted,
		"chain":    chain,
		"self":     single,
		// Its empty edge section must not count as overlapping the
		// section table that follows it.
		"edgeless": {NumVertices: 256},
	}
}

func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices != want.NumVertices {
		t.Fatalf("NumVertices = %d, want %d", got.NumVertices, want.NumVertices)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("|E| = %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got.Edges[i], want.Edges[i])
		}
	}
	if (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("weighted = %v, want %v", got.Weights != nil, want.Weights != nil)
	}
	for i := range want.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("weight %d = %v, want %v", i, got.Weights[i], want.Weights[i])
		}
	}
}

// TestV2RoundTrip reads every test graph back through both readers. The
// container holds no CSR; with csr=true the subtest also builds the
// in-memory CSR the reference algorithms use over the opened container's
// edges, which alias the file when it is mapped, and checks it against
// the CSR of the source graph before the container is closed.
func TestV2RoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, csr := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/csr=%v", name, csr), func(t *testing.T) {
				path := writeV2Temp(t, g, 99)

				open := map[string]func() (*Container, error){
					"open": func() (*Container, error) { return OpenV2(path) },
					"read": func() (*Container, error) {
						f, err := os.Open(path)
						if err != nil {
							return nil, err
						}
						t.Cleanup(func() { f.Close() })
						st, err := f.Stat()
						if err != nil {
							return nil, err
						}
						return ReadV2(f, st.Size())
					},
				}
				for mode, fn := range open {
					c, err := fn()
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					graphsEqual(t, c.Graph(), g)
					if got, want := c.Digest(), ContentDigest(g); got != want {
						t.Errorf("%s: digest %x, want %x", mode, got, want)
					}
					if c.Seed() != 99 {
						t.Errorf("%s: seed %d, want 99", mode, c.Seed())
					}
					if csr {
						checkCSRMatches(t, BuildCSR(c.Graph()), g)
					}
					if err := c.Close(); err != nil {
						t.Errorf("%s: close: %v", mode, err)
					}
				}
			})
		}
	}
}

func checkCSRMatches(t *testing.T, got *CSR, g *Graph) {
	t.Helper()
	want := BuildCSR(g)
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("offsets len %d, want %d", len(got.Offsets), len(want.Offsets))
	}
	for v := range want.Offsets {
		if got.Offsets[v] != want.Offsets[v] {
			t.Fatalf("offset %d = %d, want %d", v, got.Offsets[v], want.Offsets[v])
		}
	}
	if len(got.Targets) != len(want.Targets) {
		t.Fatalf("targets len %d, want %d", len(got.Targets), len(want.Targets))
	}
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("target %d = %d, want %d", i, got.Targets[i], want.Targets[i])
		}
	}
	if (got.Weights == nil) != (want.Weights == nil) {
		t.Fatalf("CSR weighted = %v, want %v", got.Weights != nil, want.Weights != nil)
	}
	for i := range want.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("CSR weight %d = %v, want %v", i, got.Weights[i], want.Weights[i])
		}
	}
	for _, v := range []int{g.NumVertices - 1, 0, g.NumVertices / 2, 1 % g.NumVertices} {
		gotN, wantN := got.Neighbors(VertexID(v)), want.Neighbors(VertexID(v))
		if len(gotN) != len(wantN) {
			t.Fatalf("v%d: %d neighbors, want %d", v, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("v%d neighbor %d = %d, want %d", v, i, gotN[i], wantN[i])
			}
		}
	}
}

// TestV2ZeroCopy pins the tentpole property on mmap-capable hosts: the
// opened container aliases the file and the load path does not allocate
// per edge.
func TestV2ZeroCopy(t *testing.T) {
	g := testGraphs(t)["rmat"]
	path := writeV2Temp(t, g, 0)
	c, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !hostLittleEndian {
		t.Skip("big-endian host decodes by copy")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, unmap, err := MapFile(f); err != nil {
		t.Skipf("no mmap on this host: %v", err)
	} else {
		unmap()
	}
	if !c.ZeroCopy() {
		t.Fatalf("expected a zero-copy container on this host")
	}
}

func TestV2StreamReaderMatchesMmap(t *testing.T) {
	g := testGraphs(t)["weighted"]
	path := writeV2Temp(t, g, 5)
	a, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	b, err := ReadV2(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, b.Graph(), a.Graph())
	if da, db := ContentDigest(a.Graph()), ContentDigest(b.Graph()); da != db {
		t.Fatalf("digest mismatch between readers: %x vs %x", da, db)
	}
	if b.ZeroCopy() {
		t.Fatalf("streaming reader claims zero-copy")
	}
}

func TestV2DigestMismatchIsDetectable(t *testing.T) {
	g := testGraphs(t)["rmat"]
	path := writeV2Temp(t, g, 0)
	c, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := ContentDigest(c.Graph()); got != c.Digest() {
		t.Fatalf("recomputed digest diverges from header")
	}
	other, _ := GenerateChain(4)
	if ContentDigest(other) == c.Digest() {
		t.Fatalf("distinct graphs share a digest")
	}
}

// TestV2LoadAllocs pins the no-O(edges)-transient-allocation contract of
// the zero-copy load path: opening a container must allocate container
// scaffolding only, never a copy of the edge array.
func TestV2LoadAllocs(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("decode-copy host")
	}
	g := testGraphs(t)["rmat"]
	path := writeV2Temp(t, g, 0)
	probe, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	zero := probe.ZeroCopy()
	probe.Close()
	if !zero {
		t.Skip("no mmap on this host")
	}
	allocs := testing.AllocsPerRun(10, func() {
		c, err := OpenV2(path)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	// Scaffolding (container, header, section map, file handle…) is
	// tens of objects; a decode copy of 8192 edges would be detected by
	// orders of magnitude.
	if allocs > 100 {
		t.Fatalf("OpenV2 made %.0f allocations; zero-copy path must not copy sections", allocs)
	}
}

func TestWriteV2IntoGridSectionsRejected(t *testing.T) {
	// BeginSection must reject unknown interleavings that would corrupt
	// the table: duplicate sections and too many sections.
	var buf bytes.Buffer
	_ = buf
	path := filepath.Join(t.TempDir(), "dup.hyve2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewV2Writer(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSection(SecEdges); err != nil {
		t.Fatal(err)
	}
	if err := w.EndSection(0); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSection(SecEdges); err == nil {
		t.Fatalf("duplicate section accepted")
	}
}
