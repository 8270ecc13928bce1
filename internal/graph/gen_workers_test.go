package graph

import (
	"encoding/hex"
	"math/bits"
	"testing"
)

// TestGenerateRMATWorkerIdentity pins the chunk-parallel generator's
// core contract: the edge stream is a pure function of the parameters,
// byte-identical at every worker count, because each 65536-edge chunk
// derives its own splitmix-seeded stream and rejection resampling never
// crosses a chunk boundary. Workers claim chunks in pairs, so the sizes
// cover one partial chunk, exactly two chunks (one pair), an even and an
// odd chunk count each ending in a partial chunk, and worker counts
// above the number of pairs.
func TestGenerateRMATWorkerIdentity(t *testing.T) {
	p := RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.05}
	const nv = 1 << 12
	for _, ne := range []int{1000, 2 * rmatChunkEdges, 200_000, 4*rmatChunkEdges + 777} {
		base, err := GenerateRMATWorkers(nv, ne, p, 77, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := ContentDigest(base)
		for _, workers := range []int{0, 2, 3, 7, 16} {
			g, err := GenerateRMATWorkers(nv, ne, p, 77, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := ContentDigest(g); got != want {
				t.Fatalf("edges=%d workers=%d digest %x, want %x", ne, workers, got, want)
			}
		}
	}
}

// referenceFillRMAT is the R-MAT stream definition filled one chunk at a
// time with the switch-form pick: chunk c draws from
// SplitMix64(seed ^ c·golden) and redraws until both ids name a vertex.
func referenceFillRMAT(numVertices, numEdges int, p RMATParams, seed uint64) []Edge {
	levels := bits.Len(uint(numVertices - 1))
	edges := make([]Edge, numEdges)
	for lo := 0; lo < numEdges; lo += rmatChunkEdges {
		c := uint64(lo / rmatChunkEdges)
		rng := NewRNG(SplitMix64(seed ^ c*0x9E3779B97F4A7C15))
		for i := lo; i < min(lo+rmatChunkEdges, numEdges); {
			src, dst := rmatPickReference(rng, levels, p)
			if src < numVertices && dst < numVertices {
				edges[i] = Edge{Src: VertexID(src), Dst: VertexID(dst)}
				i++
			}
		}
	}
	return edges
}

// TestGenerateRMATMatchesReferenceFill holds the lockstep fill to the
// one-chunk-at-a-time reference. The vertex counts are not powers of
// two, so both lanes of a pair reject picks, each at its own pace, and
// the odd chunk count leaves one chunk to fill alone.
func TestGenerateRMATMatchesReferenceFill(t *testing.T) {
	const ne = 2*rmatChunkEdges + 4321 // three chunks, the last partial
	cases := []struct {
		name string
		nv   int
	}{{"default", 3000}, {"noise-max", 700}, {"D=0", 5000}, {"sum-1.001", 1500}}
	for _, c := range cases {
		var p RMATParams
		for _, tc := range rmatPickCases {
			if tc.name == c.name {
				p = tc.p
			}
		}
		want := referenceFillRMAT(c.nv, ne, p, 5)
		for _, workers := range []int{1, 2} {
			g, err := GenerateRMATWorkers(c.nv, ne, p, 5, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if g.Edges[i] != want[i] {
					t.Fatalf("%s nv=%d workers=%d: edge %d (chunk %d) = %v, want %v",
						c.name, c.nv, workers, i, i/rmatChunkEdges, g.Edges[i], want[i])
				}
			}
		}
	}
}

// TestGenerateRMATGolden pins the generator's exact output across
// refactors, on every Table 2 dataset: YT and LJ were recorded when the
// chunk-parallel generator landed, WK, AS and TW with the switch-form
// pick (rmatPickReference) just before the branch-free one replaced it.
// AS is the dataset that accepts 98% of its picks (the others 76–81%),
// and TW the only one at 16 levels. Every committed artifact
// (golden-quick runs, prepared containers, cache entries) depends on
// these digests. A change here is a generator change — regenerate the
// goldens and prepared containers and say so in the change.
func TestGenerateRMATGolden(t *testing.T) {
	cases := []struct {
		name string
		ds   string
		want string
	}{
		{"YT", "YT", "1e6890dbfe16c07a61d8eeca8f4e4a87e92b39c67d225d2d0c8b99ed6669a79c"},
		{"WK", "WK", "d29a00d1d0d35ffd63e923a906034a9317dce0ac8cddd2ad854195ef3ffe3d5a"},
		{"AS", "AS", "fa20ab4a9b5a10861edce183d8d145e358ba528ead367663bea61036f0bf3573"},
		{"LJ", "LJ", "2928133c7afb858c58ea3cd5328933eec7e076a5dfcffb003f988c5cc65ddf80"},
		{"TW", "TW", "9dcb76e9916cdfe177ff246c0b4ea52755a46cc1a6073378e67514bac6d93b41"},
	}
	for _, tc := range cases {
		d, err := DatasetByName(tc.ds)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		got := ContentDigest(g)
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, hex.EncodeToString(got[:]), tc.want)
		}
	}
}
