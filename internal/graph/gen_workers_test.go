package graph

import (
	"encoding/hex"
	"testing"
)

// TestGenerateRMATWorkerIdentity pins the chunk-parallel generator's
// core contract: the edge stream is a pure function of the parameters,
// byte-identical at every worker count, because each 65536-edge chunk
// derives its own splitmix-seeded stream and rejection resampling never
// crosses a chunk boundary.
func TestGenerateRMATWorkerIdentity(t *testing.T) {
	p := RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.05}
	const nv, ne = 1 << 12, 200_000 // >3 chunks, last one partial
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
			t.Fatalf("workers=%d digest %x, want %x", workers, got, want)
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
