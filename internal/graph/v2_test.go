package graph

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeV2Temp writes g into a fresh temp container and returns its path.
func writeV2Temp(t *testing.T, g *Graph, opt V2Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hyve2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, opt); err != nil {
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

func TestV2RoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, csr := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/csr=%v", name, csr), func(t *testing.T) {
				path := writeV2Temp(t, g, V2Options{CSR: csr, Seed: 99})

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
						if c.CSR() == nil {
							t.Fatalf("%s: no CSR view", mode)
						}
						checkCSRMatches(t, c.CSR(), g)
					} else if c.CSR() != nil {
						t.Errorf("%s: unexpected CSR view", mode)
					}
					if err := c.Close(); err != nil {
						t.Errorf("%s: close: %v", mode, err)
					}
				}
			})
		}
	}
}

func checkCSRMatches(t *testing.T, cc *CompressedCSR, g *Graph) {
	t.Helper()
	want := BuildCSR(g)
	if cc.NumVertices() != g.NumVertices || cc.NumEdges() != len(g.Edges) {
		t.Fatalf("CSR dims %d/%d, want %d/%d", cc.NumVertices(), cc.NumEdges(), g.NumVertices, len(g.Edges))
	}
	got := cc.Materialize()
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("offsets len %d, want %d", len(got.Offsets), len(want.Offsets))
	}
	for v := range want.Offsets {
		if got.Offsets[v] != want.Offsets[v] {
			t.Fatalf("offset %d = %d, want %d", v, got.Offsets[v], want.Offsets[v])
		}
	}
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("target %d = %d, want %d", i, got.Targets[i], want.Targets[i])
		}
	}
	// Random access through a fresh seeker, including backward seeks.
	var s NeighborSeeker
	s.Init(cc)
	for _, v := range []int{g.NumVertices - 1, 0, g.NumVertices / 2, 1 % g.NumVertices} {
		gotN := s.Append(VertexID(v), nil)
		wantN := want.Neighbors(VertexID(v))
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

// TestV2SmallBlockVerts forces many partial blocks to cover block-edge
// arithmetic (last block short, empty vertices at block boundaries).
func TestV2SmallBlockVerts(t *testing.T) {
	g, err := GenerateRMAT(1000, 4000, RMATParams{A: 0.6, B: 0.15, C: 0.15, D: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := writeV2Temp(t, g, V2Options{CSR: true, CSRBlockVerts: 7})
	c, err := OpenV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.CSR().BlockVerts() != 7 {
		t.Fatalf("block width %d, want 7", c.CSR().BlockVerts())
	}
	checkCSRMatches(t, c.CSR(), g)
}

// TestV2ZeroCopy pins the tentpole property on mmap-capable hosts: the
// opened container aliases the file and the load path does not allocate
// per edge.
func TestV2ZeroCopy(t *testing.T) {
	g := testGraphs(t)["rmat"]
	path := writeV2Temp(t, g, V2Options{CSR: true})
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
	path := writeV2Temp(t, g, V2Options{CSR: true, Seed: 5})
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
	path := writeV2Temp(t, g, V2Options{})
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
	path := writeV2Temp(t, g, V2Options{CSR: true})
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
	if err := w.BeginSection(SecEdges, EncRaw); err != nil {
		t.Fatal(err)
	}
	if err := w.EndSection(0); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginSection(SecEdges, EncRaw); err == nil {
		t.Fatalf("duplicate section accepted")
	}
}
