package graphr

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestQuantizerValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 4}, {16, 0}, {16, 5}, {31, 1}} {
		if _, err := NewQuantizer(bad[0], bad[1], 1); err == nil {
			t.Errorf("geometry %v accepted", bad)
		}
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewQuantizer(16, 4, scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	q, err := NewQuantizer(16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Quantize(-1) != 0 || q.Quantize(0) != 0 {
		t.Error("non-positive values must map to 0")
	}
	if q.Quantize(5) != q.Levels()-1 {
		t.Error("overscale values must clamp to full scale")
	}
	// Dequantize(Quantize(x)) within half an LSB.
	lsb := 2.0 / float64(q.Levels()-1)
	for _, x := range []float64{0.001, 0.5, 1.0, 1.999} {
		back := q.Dequantize(q.Quantize(x))
		if math.Abs(back-x) > lsb {
			t.Errorf("round trip of %v → %v off by more than an LSB", x, back)
		}
	}
}

// Slicing and recombining is the identity on codes.
func TestSliceRecombineIdentity(t *testing.T) {
	q, err := NewQuantizer(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(code uint16) bool {
		slices := q.Slices(uint32(code))
		if len(slices) != 4 {
			return false
		}
		sums := make([]uint64, len(slices))
		for i, s := range slices {
			if s > 15 {
				return false
			}
			sums[i] = uint64(s)
		}
		return q.Recombine(sums) == uint64(code)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The bit-sliced MVM must equal the direct integer MVM exactly: slicing
// is algebraically lossless; only quantization loses information.
func TestCrossbarMVMMatchesIntegerMVM(t *testing.T) {
	q, err := NewQuantizer(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRNG(9)
	const dim = 8
	cells := make([][]uint32, dim)
	in := make([]uint32, dim)
	for i := range cells {
		cells[i] = make([]uint32, dim)
		for j := range cells[i] {
			cells[i][j] = uint32(rng.Intn(1 << 16))
		}
		in[i] = uint32(rng.Intn(1 << 16))
	}
	got := q.CrossbarMVM(cells, in)
	for j := 0; j < dim; j++ {
		var want uint64
		for i := 0; i < dim; i++ {
			want += uint64(in[i]) * uint64(cells[i][j])
		}
		if got[j] != want {
			t.Fatalf("column %d: sliced %d vs direct %d", j, got[j], want)
		}
	}
}

// 16-bit crossbar PageRank tracks the float64 oracle closely; 8-bit
// drifts further — quantization precision is the fidelity price of the
// analog compute.
func TestPageRankCrossbarPrecision(t *testing.T) {
	g, err := graph.GenerateRMAT(1024, 8192, graph.DefaultRMAT, 12)
	if err != nil {
		t.Fatal(err)
	}
	q16, err := NewQuantizer(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err16, err := PageRankCrossbar(g, q16, 0.85, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumVertices {
		t.Fatal("wrong rank vector size")
	}
	if err16 > 0.05 {
		t.Errorf("16-bit crossbar PR max relative error %.4f, want ≤5%%", err16)
	}
	q8, err := NewQuantizer(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err8, err := PageRankCrossbar(g, q8, 0.85, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err8 <= err16 {
		t.Errorf("8-bit error %.4f not above 16-bit %.4f", err8, err16)
	}
}

func TestPageRankCrossbarValidation(t *testing.T) {
	q, _ := NewQuantizer(16, 4, 1)
	if _, _, err := PageRankCrossbar(&graph.Graph{}, q, 0.85, 10); err == nil {
		t.Error("empty graph accepted")
	}
	g, _ := graph.GenerateChain(10)
	if _, _, err := PageRankCrossbar(g, q, 0.85, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, _, err := PageRankCrossbar(g, q, 1.5, 5); err == nil {
		t.Error("bad damping accepted")
	}
}

func TestBlockOccupancyOf(t *testing.T) {
	g, _ := graph.GenerateChain(16)
	occ, err := BlockOccupancyOf(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if occ.TotalEdges != int64(g.NumEdges()) {
		t.Error("occupancy lost edges")
	}
}

// TestPageRankCrossbarDeterministic pins a verification-found flake:
// rank contributions must accumulate in one fixed block order, because
// float64 reassociation noise can flip a quantization code through the
// next iteration's rescaled quantizer. An emulation that ranged over a
// block map made two runs on the same graph disagree in the fourth
// decimal; repeated in-process runs catch any order that varies.
func TestPageRankCrossbarDeterministic(t *testing.T) {
	g, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuantizer(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranks0, rel0, err := PageRankCrossbar(g, q, 0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 5; run++ {
		ranks, rel, err := PageRankCrossbar(g, q, 0.85, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rel != rel0 {
			t.Fatalf("run %d: maxRel %v, first run said %v", run, rel, rel0)
		}
		for v := range ranks {
			if ranks[v] != ranks0[v] {
				t.Fatalf("run %d: rank[%d] = %v, first run said %v", run, v, ranks[v], ranks0[v])
			}
		}
	}
}

// flatBlock lists a dense 8×8 code matrix's non-empty cells as block
// (0, 0) of a crossbarGraph, in the (i, j) order programCrossbar uses.
func flatBlock(cells [][]uint32) *crossbarGraph {
	xg := &crossbarGraph{start: []int{0}}
	for i, row := range cells {
		for j, code := range row {
			if code != 0 {
				xg.cells = append(xg.cells, xbarCell{uint32(i), uint32(j), code})
			}
		}
	}
	xg.start = append(xg.start, len(xg.cells))
	return xg
}

// requireColumnsMatchMVM fails unless the flat column sums of the block
// equal CrossbarMVM's shift-add result exactly.
func requireColumnsMatchMVM(t *testing.T, q *Quantizer, cells [][]uint32, in []uint32) {
	t.Helper()
	want := q.CrossbarMVM(cells, in)
	got, _ := flatBlock(cells).columns(0, in)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%d/%d bits, column %d: flat sum %d, CrossbarMVM %d (cells %v, in %v)",
				q.ValueBits, q.CellBits, j, got[j], want[j], cells, in)
		}
	}
}

// Every geometry NewQuantizer accepts with 1-, 2- and 4-bit cells: the
// flat column sums over one to 64 non-empty cells, with random, zero
// and full-scale inputs, equal CrossbarMVM exactly.
func TestColumnsMatchCrossbarMVM(t *testing.T) {
	rng := graph.NewRNG(18)
	for _, cellBits := range []int{1, 2, 4} {
		for valueBits := cellBits; valueBits <= 30; valueBits += cellBits {
			q, err := NewQuantizer(valueBits, cellBits, 1)
			if err != nil {
				t.Fatal(err)
			}
			full := q.Levels() - 1
			for filled := 1; filled <= blockDim*blockDim; filled++ {
				cells := make([][]uint32, blockDim)
				for i := range cells {
					cells[i] = make([]uint32, blockDim)
				}
				for _, pos := range rng.Perm(blockDim * blockDim)[:filled] {
					code := full // every fourth cell saturated
					if rng.Intn(4) != 0 {
						code = 1 + uint32(rng.Intn(int(full)))
					}
					cells[pos/blockDim][pos%blockDim] = code
				}
				random, zero, fullScale := make([]uint32, blockDim), make([]uint32, blockDim), make([]uint32, blockDim)
				for i := range random {
					random[i] = uint32(rng.Intn(int(full) + 1))
					fullScale[i] = full
				}
				for _, in := range [][]uint32{random, zero, fullScale} {
					requireColumnsMatchMVM(t, q, cells, in)
				}
			}
		}
	}
}

// The flat cell list reproduces the dense block map bit for bit: ranks
// and maxRel compare by their float64 bits, on graphs that hit every
// edge case of the cell build.
func TestPageRankCrossbarMatchesDense(t *testing.T) {
	chain, err := graph.GenerateChain(10) // |V| not a multiple of 8
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chain", chain},
		{"self-loops", &graph.Graph{NumVertices: 12, Edges: []graph.Edge{
			{Src: 0, Dst: 0}, {Src: 0, Dst: 9}, {Src: 3, Dst: 3}, {Src: 9, Dst: 9}, {Src: 9, Dst: 0}, {Src: 11, Dst: 3},
		}}},
		// Vertex 2's two edges each quantize to 128 at 8 bits, so the
		// merged cell saturates at 255.
		{"parallel", &graph.Graph{NumVertices: 16, Edges: []graph.Edge{
			{Src: 2, Dst: 13}, {Src: 2, Dst: 13}, {Src: 5, Dst: 13}, {Src: 13, Dst: 2}, {Src: 13, Dst: 5}, {Src: 13, Dst: 9},
		}}},
		{"isolated-tail", &graph.Graph{NumVertices: 40, Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 17}, {Src: 17, Dst: 0}, {Src: 8, Dst: 1}, {Src: 20, Dst: 8},
		}}},
		{"rmat", rmat},
	}
	for _, tc := range graphs {
		for _, bits := range []int{8, 12, 16} {
			for _, iters := range []int{1, 3, 10} {
				t.Run(fmt.Sprintf("%s/%dbit/%diter", tc.name, bits, iters), func(t *testing.T) {
					q, err := NewQuantizer(bits, 4, 1)
					if err != nil {
						t.Fatal(err)
					}
					wantRanks, wantRel, err := pageRankCrossbarDense(tc.g, q, 0.85, iters)
					if err != nil {
						t.Fatal(err)
					}
					ranks, rel, err := PageRankCrossbar(tc.g, q, 0.85, iters)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(rel) != math.Float64bits(wantRel) {
						t.Errorf("maxRel %v, dense emulation %v", rel, wantRel)
					}
					for v := range wantRanks {
						if math.Float64bits(ranks[v]) != math.Float64bits(wantRanks[v]) {
							t.Fatalf("rank[%d] = %v, dense emulation %v", v, ranks[v], wantRanks[v])
						}
					}
				})
			}
		}
	}
}

// The parallel-edge case above only pins saturation if the merged code
// really saturates.
func TestParallelEdgesSaturate(t *testing.T) {
	g := &graph.Graph{NumVertices: 16, Edges: []graph.Edge{{Src: 2, Dst: 13}, {Src: 2, Dst: 13}}}
	wq, err := NewQuantizer(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w := wq.Quantize(0.5); w != 128 {
		t.Fatalf("weight code of 1/2 at 8 bits is %d, want 128", w)
	}
	xg := programCrossbar(g, wq)
	if len(xg.cells) != 1 || xg.cells[0] != (xbarCell{2, 13, 255}) {
		t.Errorf("cells %v, want one saturated cell {2 13 255}", xg.cells)
	}
}

// programCrossbarBySort is programCrossbar as it stood before the shared
// block-key sort: its own packed cell keys and slices.Sort. It is the
// oracle of the cell order and of the merged parallel-edge codes.
func programCrossbarBySort(g *graph.Graph, wq *Quantizer) *crossbarGraph {
	cellKey := func(src, dst uint32) uint64 {
		return uint64(src/blockDim)<<35 | uint64(dst/blockDim)<<6 | uint64(src%blockDim)<<3 | uint64(dst%blockDim)
	}
	keys := make([]uint64, len(g.Edges))
	for k, e := range g.Edges {
		keys[k] = cellKey(e.Src, e.Dst)
	}
	slices.Sort(keys)
	outDeg := g.OutDegrees()
	full := wq.Levels() - 1
	xg := &crossbarGraph{cells: make([]xbarCell, 0, len(keys))}
	for k, key := range keys {
		src := uint32(key>>35)*blockDim + uint32((key>>3)%blockDim)
		dst := uint32((key>>6)%(1<<29))*blockDim + uint32(key%blockDim)
		w := wq.Quantize(1 / float64(outDeg[src]))
		if k > 0 && key == keys[k-1] {
			c := &xg.cells[len(xg.cells)-1]
			c.code = min(c.code+w, full)
			continue
		}
		if k == 0 || key>>6 != keys[k-1]>>6 {
			xg.start = append(xg.start, len(xg.cells))
		}
		xg.cells = append(xg.cells, xbarCell{src, dst, w})
	}
	xg.start = append(xg.start, len(xg.cells))
	return xg
}

// The shared block-key sort programs the same cells, in the same order
// and with the same block starts, as the crossbar's own sort did: on a
// skewed graph, saturating parallel edges with self-loops, an edgeless
// graph and ids at the top of a 2²⁰-vertex space.
func TestProgramCrossbarMatchesOwnSort(t *testing.T) {
	rmat, err := graph.GenerateRMAT(4096, 1<<15, graph.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	dups := &graph.Graph{NumVertices: 40}
	for i := 0; i < 300; i++ {
		v := graph.VertexID(i * 7 % 40)
		dups.Edges = append(dups.Edges, graph.Edge{Src: v, Dst: v}, graph.Edge{Src: v % 3, Dst: 39 - v%2})
	}
	const top = 1<<20 - 1
	high := &graph.Graph{NumVertices: top + 1, Edges: []graph.Edge{
		{Src: top, Dst: top}, {Src: top, Dst: 0}, {Src: 0, Dst: top}, {Src: top - 1, Dst: top - 7}, {Src: top, Dst: top},
	}}
	wq, err := NewQuantizer(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"rmat": rmat, "dups": dups, "edgeless": {NumVertices: 16}, "high": high} {
		got, want := programCrossbar(g, wq), programCrossbarBySort(g, wq)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: programmed %d cells in %d blocks, the crossbar's own sort %d in %d",
				name, len(got.cells), got.blocks(), len(want.cells), want.blocks())
		}
	}
}

// pageRankCrossbarDense is the emulation as it stood before the flat
// cell list: a map of dense 8×8 blocks, every block evaluated through
// CrossbarMVM. PageRankCrossbar must reproduce it bit for bit.
func pageRankCrossbarDense(g *graph.Graph, q *Quantizer, damping float64, iters int) ([]float64, float64, error) {
	if g.NumVertices == 0 {
		return nil, 0, graph.ErrEmptyGraph
	}
	if iters <= 0 || damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("graphr: bad PageRank parameters (iters=%d, damping=%v)", iters, damping)
	}
	const dim = 8
	n := g.NumVertices
	outDeg := g.OutDegrees()

	// Block directory: sparse 8×8 blocks holding 1/outdeg weights — what
	// GraphR programs into a crossbar per block.
	type blockKey struct{ bx, by uint32 }
	blocks := map[blockKey][][]uint32{}
	// Weight quantizer: weights are 1/outdeg ∈ (0, 1].
	wq, err := NewQuantizer(q.ValueBits, q.CellBits, 1)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range g.Edges {
		k := blockKey{e.Src / dim, e.Dst / dim}
		b := blocks[k]
		if b == nil {
			b = make([][]uint32, dim)
			for i := range b {
				b[i] = make([]uint32, dim)
			}
			blocks[k] = b
		}
		// Multi-edges accumulate weight codes (saturating at full scale).
		w := wq.Quantize(1 / float64(outDeg[e.Src]))
		cell := &b[e.Src%dim][e.Dst%dim]
		if sum := *cell + w; sum < wq.Levels() {
			*cell = sum
		} else {
			*cell = wq.Levels() - 1
		}
	}

	// Iterate blocks in a fixed order: the per-vertex accumulation below
	// is float64 addition, and letting map order pick the association
	// perturbs maxRank — which sets the next iteration's quantizer scale
	// and can flip a code, making runs disagree in the fourth decimal.
	keys := make([]blockKey, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bx != keys[j].bx {
			return keys[i].bx < keys[j].bx
		}
		return keys[i].by < keys[j].by
	})

	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	// Rank quantizer scale: ranks stay below ~64/n on natural graphs;
	// rescale each iteration to the current maximum for full dynamic
	// range (GraphR's DAC reference voltage).
	for it := 0; it < iters; it++ {
		maxRank := 0.0
		for _, r := range rank {
			if r > maxRank {
				maxRank = r
			}
		}
		rq, err := NewQuantizer(q.ValueBits, q.CellBits, maxRank)
		if err != nil {
			return nil, 0, err
		}
		next := make([]float64, n)
		base := (1 - damping) / float64(n)
		for v := range next {
			next[v] = base
		}
		full := float64(uint64(rq.Levels()-1)) * float64(uint64(wq.Levels()-1))
		for _, k := range keys {
			cells := blocks[k]
			in := make([]uint32, dim)
			for i := 0; i < dim; i++ {
				v := int(k.bx)*dim + i
				if v < n {
					in[i] = rq.Quantize(rank[v])
				}
			}
			out := q.CrossbarMVM(cells, in)
			for j := 0; j < dim; j++ {
				u := int(k.by)*dim + j
				if u < n && out[j] > 0 {
					// Dequantize the integer dot product: codes multiply,
					// so the real value is out / (rankFull × weightFull)
					// × rankScale × weightScale.
					next[u] += damping * float64(out[j]) / full * maxRank
				}
			}
		}
		rank = next
	}

	// Oracle comparison.
	exact, err := exactPageRank(g, damping, iters)
	if err != nil {
		return nil, 0, err
	}
	maxRel := 0.0
	for v := range rank {
		if exact[v] == 0 {
			continue
		}
		if rel := math.Abs(rank[v]-exact[v]) / exact[v]; rel > maxRel {
			maxRel = rel
		}
	}
	return rank, maxRel, nil
}
