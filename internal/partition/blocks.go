package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
)

// BlockKeys is an edge list grouped into the width×width blocks of its
// adjacency matrix by one sort: the layout GraphR programs into its
// crossbars, which Table 1's occupancy, Fig. 20's block directory and
// the crossbar emulation all read. Keys holds one key per edge in
// ascending order. A key orders by block row bx = src/width, then block
// column by = dst/width and, when cells are kept, by the row i =
// src%width and column j = dst%width inside the block. So each block's
// edges form one run of keys (BlockEnd, Run), a run's cells are in
// (i, j) order, and parallel edges give equal keys.
type BlockKeys struct {
	Keys []uint64
	// cellBits is the width of one in-block coordinate in a key (0
	// without cells); byBits that of the block column in a packed key.
	cellBits, byBits uint
	// blocks is nil when a key packs its block's coordinates. Otherwise
	// the keys would not fit 64 bits, the edges were sorted by
	// comparison, and a key's block bits index blocks, which holds
	// bx<<32 | by of each block in order.
	blocks []uint64
}

// maxCellWidth bounds the blocks whose cells a key can keep: a dense
// 8×8 crossbar block. Two in-block coordinates then take at most 6
// bits, which leaves a fallback key 58 bits to number its blocks.
const maxCellWidth = 8

// SortBlockKeys sorts one key per edge of edges into width×width block
// order. Without cells a key holds the block alone, for any positive
// width; with cells it also holds the in-block row and column, for a
// width of at most 8. It panics on any other width.
//
// Keys pack into 64 bits sized by the largest vertex id present and are
// sorted by an LSD radix sort. Where a packed key would not fit (cells
// of a width that is not a power of two, over ids near 1<<32), the edges
// are sorted by comparison instead and the keys number the blocks.
func SortBlockKeys(edges []graph.Edge, width int, cells bool) *BlockKeys {
	if width <= 0 || cells && width > maxCellWidth {
		panic(fmt.Sprintf("partition: block width %d out of range (cells %t)", width, cells))
	}
	// Every id is below 1<<32, so a wider block splits ids exactly as a
	// 1<<32-wide one: block 0, in-block coordinate = id.
	w := min(uint64(width), 1<<32)
	var top uint32
	for _, e := range edges {
		top = max(top, e.Src, e.Dst)
	}
	k := &BlockKeys{byBits: uint(bits.Len64(uint64(top) / w))}
	// cellMask keeps an in-block coordinate in the key, or drops it.
	var cellMask uint32
	if cells {
		k.cellBits = uint(bits.Len64(min(w-1, uint64(top))))
		cellMask = math.MaxUint32
	}
	if 2*(k.byBits+k.cellBits) > 64 {
		k.sortByComparison(edges, uint32(w))
		return k
	}
	keys := make([]uint64, len(edges))
	cb, bb := k.cellBits, k.byBits
	if w&(w-1) == 0 {
		// Power-of-two width: shifts and masks, no division. A shift of
		// a uint32 by 32 (the 1<<32-wide block) yields 0.
		shift := uint(bits.TrailingZeros64(w))
		cellMask &= uint32(w - 1)
		for n, e := range edges {
			keys[n] = (uint64(e.Src>>shift)<<bb|uint64(e.Dst>>shift))<<(2*cb) |
				uint64(e.Src&cellMask)<<cb | uint64(e.Dst&cellMask)
		}
	} else {
		w32 := uint32(w)
		for n, e := range edges {
			bx, by := e.Src/w32, e.Dst/w32
			keys[n] = (uint64(bx)<<bb|uint64(by))<<(2*cb) |
				uint64((e.Src-bx*w32)&cellMask)<<cb | uint64((e.Dst-by*w32)&cellMask)
		}
	}
	k.Keys = RadixSort(keys, make([]uint64, len(keys)), 2*(bb+cb))
	return k
}

// sortByComparison is SortBlockKeys for keys that do not fit 64 bits,
// which only cells make possible: it sorts a copy of edges by (bx, by,
// i, j), then numbers the blocks in that order and keys each edge by
// its block's number and its cell.
func (k *BlockKeys) sortByComparison(edges []graph.Edge, w uint32) {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.Src/w, b.Src/w), cmp.Compare(a.Dst/w, b.Dst/w),
			cmp.Compare(a.Src%w, b.Src%w), cmp.Compare(a.Dst%w, b.Dst%w))
	})
	k.Keys = make([]uint64, len(sorted))
	k.blocks = []uint64{}
	for n, e := range sorted {
		blk := uint64(e.Src/w)<<32 | uint64(e.Dst/w)
		if len(k.blocks) == 0 || blk != k.blocks[len(k.blocks)-1] {
			k.blocks = append(k.blocks, blk)
		}
		k.Keys[n] = uint64(len(k.blocks)-1)<<(2*k.cellBits) | uint64(e.Src%w)<<k.cellBits | uint64(e.Dst%w)
	}
}

// BlockEnd returns the end of the run of keys that starts at lo: the
// index past the last key in Keys[lo]'s block.
func (k *BlockKeys) BlockEnd(lo int) int {
	blk := k.Keys[lo] >> (2 * k.cellBits)
	hi := lo + 1
	for hi < len(k.Keys) && k.Keys[hi]>>(2*k.cellBits) == blk {
		hi++
	}
	return hi
}

// Run returns the run of keys that holds block (bx, by), Keys[lo:hi];
// it is empty when no edge falls in the block, which includes every
// block whose coordinates are wider than a packed key holds. It is two
// binary searches over Keys, after one over the block directory where
// the keys number the blocks.
func (k *BlockKeys) Run(bx, by uint32) (lo, hi int) {
	var blk uint64
	if k.blocks != nil {
		n, ok := slices.BinarySearch(k.blocks, uint64(bx)<<32|uint64(by))
		if !ok {
			return 0, 0
		}
		blk = uint64(n)
	} else {
		if (bx|by)>>k.byBits != 0 {
			return 0, 0
		}
		blk = uint64(bx)<<k.byBits | uint64(by)
	}
	shift := 2 * k.cellBits
	lo = sort.Search(len(k.Keys), func(i int) bool { return k.Keys[i]>>shift >= blk })
	hi = lo + sort.Search(len(k.Keys)-lo, func(i int) bool { return k.Keys[lo+i]>>shift > blk })
	return lo, hi
}

// Block returns the block row and column of key.
func (k *BlockKeys) Block(key uint64) (bx, by uint32) {
	blk := key >> (2 * k.cellBits)
	if k.blocks != nil {
		blk = k.blocks[blk]
		return uint32(blk >> 32), uint32(blk)
	}
	return uint32(blk >> k.byBits), uint32(blk & (1<<k.byBits - 1))
}

// Cell returns the row and column of key inside its block; both are 0
// for keys sorted without cells.
func (k *BlockKeys) Cell(key uint64) (i, j uint32) {
	mask := uint64(1)<<k.cellBits - 1
	return uint32(key >> k.cellBits & mask), uint32(key & mask)
}

// radixDigit is the widest digit RadixSort uses: 2048 counters, small
// enough to stay in L1.
const radixDigit = 11

// RadixSort sorts keys, whose set bits all lie below bit nbits, with a
// least-significant-digit radix sort through buf (len(keys) long), and
// returns whichever of the two holds the result. The digits split nbits
// evenly, all histograms are counted in one read, and a pass whose digit
// is the same in every key is skipped.
func RadixSort(keys, buf []uint64, nbits uint) []uint64 {
	if len(keys) < 2 || nbits == 0 {
		return keys
	}
	passes := (nbits + radixDigit - 1) / radixDigit
	digit := (nbits + passes - 1) / passes
	mask := uint64(1)<<digit - 1
	counts := make([]int, passes<<digit)
	for _, key := range keys {
		for p := uint(0); p < passes; p++ {
			counts[p<<digit|uint(key>>(p*digit)&mask)]++
		}
	}
	for p := uint(0); p < passes; p++ {
		shift := p * digit
		c := counts[p<<digit : (p+1)<<digit]
		if c[keys[0]>>shift&mask] == len(keys) {
			continue
		}
		at := 0
		for d, n := range c {
			c[d] = at
			at += n
		}
		for _, key := range keys {
			d := key >> shift & mask
			buf[c[d]] = key
			c[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// Occupancy summarizes block occupancy for a virtual grid with fixed
// interval width (in vertices) without materializing the grid. It is the
// measurement behind Table 1: GraphR processes the graph in 8×8-vertex
// blocks, so Navg = |E| / non-empty blocks with intervalVerts = 8.
type Occupancy struct {
	IntervalVerts  int
	NonEmpty       int64
	TotalEdges     int64
	AvgEdgesPerBlk float64 // the paper's Navg
	MaxEdgesPerBlk int64
}

// occupancyKey keys the memoized occupancy of an edge array per width.
type occupancyKey int

// ComputeOccupancy counts the runs of g's sorted block keys. The result
// is memoized per width on g's edge array (graph.EdgeMemo): Table 1,
// Figs. 10, 11 and 21 and the weighted siblings of one graph share one
// count per width, and each entry is a few words.
func ComputeOccupancy(g *graph.Graph, intervalVerts int) (Occupancy, error) {
	if intervalVerts <= 0 {
		return Occupancy{}, fmt.Errorf("partition: non-positive interval width %d", intervalVerts)
	}
	// The count cannot fail, so the memo holds no error.
	v, _ := g.EdgeMemo(occupancyKey(intervalVerts), func() (any, error) {
		k := SortBlockKeys(g.Edges, intervalVerts, false)
		occ := Occupancy{IntervalVerts: intervalVerts, TotalEdges: int64(len(g.Edges))}
		for lo, hi := 0, 0; lo < len(k.Keys); lo = hi {
			hi = k.BlockEnd(lo)
			occ.NonEmpty++
			occ.MaxEdgesPerBlk = max(occ.MaxEdgesPerBlk, int64(hi-lo))
		}
		if occ.NonEmpty > 0 {
			occ.AvgEdgesPerBlk = float64(occ.TotalEdges) / float64(occ.NonEmpty)
		}
		return occ, nil
	})
	return v.(Occupancy), nil
}
