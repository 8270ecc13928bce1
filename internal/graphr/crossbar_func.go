package graphr

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Functional emulation of GraphR's analog compute: values are quantized
// to ValueBits fixed point, bit-sliced over ValueBits/CellBits crossbar
// copies (§6.4: "GraphR uses 4 crossbars with 4-bit cells to perform
// 16-bit operations"), each slice performs an integer matrix-vector
// product (the digital stand-in for the analog current summation), and
// the slices recombine by shift-and-add. Running PageRank through this
// path quantifies the precision the crossbar actually delivers — the
// fidelity dimension the paper's energy model leaves implicit.

// Quantizer maps non-negative reals to ValueBits fixed point with a
// fixed scale, and slices them into CellBits planes.
type Quantizer struct {
	ValueBits int
	CellBits  int
	// Scale is the real value represented by the full-scale code.
	Scale float64
}

// NewQuantizer validates the geometry.
func NewQuantizer(valueBits, cellBits int, scale float64) (*Quantizer, error) {
	if valueBits <= 0 || valueBits > 30 || cellBits <= 0 || valueBits%cellBits != 0 {
		return nil, fmt.Errorf("graphr: bad quantizer geometry %d/%d", valueBits, cellBits)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("graphr: scale %v is not finite and positive", scale)
	}
	return &Quantizer{ValueBits: valueBits, CellBits: cellBits, Scale: scale}, nil
}

// Levels returns the code count.
func (q *Quantizer) Levels() uint32 { return 1 << q.ValueBits }

// Quantize clamps x to [0, Scale] and returns its code.
func (q *Quantizer) Quantize(x float64) uint32 {
	if x <= 0 {
		return 0
	}
	if x >= q.Scale {
		return q.Levels() - 1
	}
	return uint32(math.Round(x / q.Scale * float64(q.Levels()-1)))
}

// Dequantize inverts Quantize.
func (q *Quantizer) Dequantize(code uint32) float64 {
	return float64(code) / float64(q.Levels()-1) * q.Scale
}

// Slices splits a code into ValueBits/CellBits planes, least significant
// first.
func (q *Quantizer) Slices(code uint32) []uint32 {
	n := q.ValueBits / q.CellBits
	mask := uint32(1<<q.CellBits) - 1
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = code >> (i * q.CellBits) & mask
	}
	return out
}

// Recombine shift-adds slice-plane dot products back into a full-width
// integer result.
func (q *Quantizer) Recombine(sliceSums []uint64) uint64 {
	var acc uint64
	for i, s := range sliceSums {
		acc += s << (i * q.CellBits)
	}
	return acc
}

// CrossbarMVM computes out[j] = Σ_i in[i]·cell[i][j] through the sliced
// planes: the matrix is stored sliced (as the four 4-bit crossbars hold
// it), inputs are applied full-width (GraphR drives DACs per row), and
// each plane's integer products recombine by shift-add.
func (q *Quantizer) CrossbarMVM(cells [][]uint32, in []uint32) []uint64 {
	dim := len(cells)
	out := make([]uint64, dim)
	planes := q.ValueBits / q.CellBits
	mask := uint32(1<<q.CellBits) - 1
	for p := 0; p < planes; p++ {
		shift := p * q.CellBits
		for i := 0; i < dim; i++ {
			v := uint64(in[i])
			if v == 0 {
				continue
			}
			row := cells[i]
			for j := 0; j < dim; j++ {
				g := uint64(row[j] >> shift & mask)
				if g != 0 {
					out[j] += (v * g) << shift
				}
			}
		}
	}
	return out
}

// blockDim is GraphR's crossbar size: every block is an 8×8 crossbar.
const blockDim = 8

// xbarCell is one programmed crossbar cell: the weight code of edge
// src→dst, with parallel edges merged.
type xbarCell struct{ src, dst, code uint32 }

// crossbarGraph is a graph programmed into 8×8 crossbar blocks, kept as
// its non-empty cells only: a natural-graph block holds 1.45–1.74 edges
// (Table 1, Navg), so a dense block is nearly all zero cells. Cells are
// sorted by (bx, by, i, j) — source block, destination block, row,
// column — and block b owns cells[start[b]:start[b+1]].
type crossbarGraph struct {
	cells []xbarCell
	start []int
}

// programCrossbar programs g's 1/outdeg weights through wq — what GraphR
// writes into a crossbar per block. Parallel edges add their codes,
// saturating at full scale; saturating addition of non-negative codes
// does not depend on order, so one sort of the per-edge cell keys
// (partition.SortBlockKeys) suffices.
func programCrossbar(g *graph.Graph, wq *Quantizer) *crossbarGraph {
	k := partition.SortBlockKeys(g.Edges, blockDim, true)
	outDeg := g.OutDegrees()
	full := wq.Levels() - 1
	xg := &crossbarGraph{cells: make([]xbarCell, 0, len(k.Keys))}
	for lo, hi := 0, 0; lo < len(k.Keys); lo = hi {
		hi = k.BlockEnd(lo)
		xg.start = append(xg.start, len(xg.cells))
		bx, by := k.Block(k.Keys[lo])
		for n := lo; n < hi; n++ {
			i, j := k.Cell(k.Keys[n])
			src, dst := bx*blockDim+i, by*blockDim+j
			w := wq.Quantize(1 / float64(outDeg[src]))
			if n > lo && k.Keys[n] == k.Keys[n-1] {
				c := &xg.cells[len(xg.cells)-1]
				c.code = min(c.code+w, full)
				continue
			}
			xg.cells = append(xg.cells, xbarCell{src, dst, w})
		}
	}
	xg.start = append(xg.start, len(xg.cells))
	return xg
}

// blocks returns the number of non-empty blocks.
func (xg *crossbarGraph) blocks() int { return len(xg.start) - 1 }

// columns returns block b's column sums Σᵢ in[bx·8+i]·cell[i][j] over
// its non-empty cells, indexed by j, and the mask of columns that hold
// a cell. Each sum is exactly the integer CrossbarMVM's shift-add
// produces (bit slices recombine losslessly), and it cannot overflow:
// codes and inputs are below 2³⁰, so eight products stay below 2⁶³.
func (xg *crossbarGraph) columns(b int, in []uint32) (col [blockDim]uint64, used uint8) {
	for _, c := range xg.cells[xg.start[b]:xg.start[b+1]] {
		col[c.dst%blockDim] += uint64(in[c.src]) * uint64(c.code)
		used |= 1 << (c.dst % blockDim)
	}
	return col, used
}

// quantizeRanks writes every rank's code into codes, under a quantizer
// of q's geometry scaled to the current maximum rank (GraphR's DAC
// reference voltage), and returns that quantizer and the maximum.
func quantizeRanks(rank []float64, q *Quantizer, codes []uint32) (*Quantizer, float64, error) {
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
	for v, r := range rank {
		codes[v] = rq.Quantize(r)
	}
	return rq, maxRank, nil
}

// uniformRanks returns PageRank's starting ranks.
func uniformRanks(n int) []float64 {
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	return rank
}

// PageRankCrossbar runs PageRank for `iters` iterations with all edge
// propagation performed through quantized 8×8 crossbar MVMs, and returns
// the ranks plus the maximum relative error against the float64 oracle.
// Only non-empty cells are evaluated; the result is bit-identical to
// running CrossbarMVM on every dense block.
func PageRankCrossbar(g *graph.Graph, q *Quantizer, damping float64, iters int) ([]float64, float64, error) {
	if g.NumVertices == 0 {
		return nil, 0, graph.ErrEmptyGraph
	}
	if iters <= 0 || damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("graphr: bad PageRank parameters (iters=%d, damping=%v)", iters, damping)
	}
	n := g.NumVertices
	// Weight quantizer: weights are 1/outdeg ∈ (0, 1].
	wq, err := NewQuantizer(q.ValueBits, q.CellBits, 1)
	if err != nil {
		return nil, 0, err
	}
	xg := programCrossbar(g, wq)

	rank := uniformRanks(n)
	codes := make([]uint32, n)
	// Ranks stay below ~64/n on natural graphs; rescaling the rank
	// quantizer every iteration keeps the full dynamic range.
	for it := 0; it < iters; it++ {
		rq, maxRank, err := quantizeRanks(rank, q, codes)
		if err != nil {
			return nil, 0, err
		}
		next := make([]float64, n)
		base := (1 - damping) / float64(n)
		for v := range next {
			next[v] = base
		}
		full := float64(uint64(rq.Levels()-1)) * float64(uint64(wq.Levels()-1))
		// Blocks run in (bx, by) order: the per-vertex accumulation is
		// float64 addition, and a different association perturbs
		// maxRank — which sets the next iteration's quantizer scale and
		// can flip a code.
		for b := 0; b < xg.blocks(); b++ {
			col, used := xg.columns(b, codes)
			first := xg.cells[xg.start[b]].dst &^ (blockDim - 1)
			for ; used != 0; used &= used - 1 {
				j := bits.TrailingZeros8(used)
				if s := col[j]; s > 0 {
					// Dequantize the integer dot product: codes multiply,
					// so the real value is s / (rankFull × weightFull)
					// × rankScale × weightScale.
					next[int(first)+j] += damping * float64(s) / full * maxRank
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

func exactPageRank(g *graph.Graph, damping float64, iters int) ([]float64, error) {
	n := g.NumVertices
	outDeg := g.OutDegrees()
	rank := uniformRanks(n)
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		base := (1 - damping) / float64(n)
		for v := range next {
			next[v] = base
		}
		for _, e := range g.Edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outDeg[e.Src])
		}
		rank = next
	}
	return rank, nil
}

// BlockOccupancyOf re-exports the Table 1 statistic for callers that
// already hold a graph (keeps the GraphR package self-contained).
func BlockOccupancyOf(g *graph.Graph, dim int) (partition.Occupancy, error) {
	return partition.ComputeOccupancy(g, dim)
}
