package graphr

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/device/crossbar"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/units"
)

func relEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		diff /= scale
	}
	return diff <= tol && !math.IsNaN(diff)
}

// CheckModelVsEmulation holds the GraphR cost model (Eq. 9–16) against
// independent recomputations and, for PageRank at the paper's block
// geometry, against the functional bit-sliced crossbar emulation: block
// occupancy must match a fresh scan, the compute-time decomposition must
// reproduce from the crossbar design point, the total-time identity must
// hold, the quantized crossbar ranks must track the float64 oracle, and
// the emulation's sparse column sums must equal CrossbarMVM on every
// non-empty block.
func CheckModelVsEmulation(cfg Config, w core.Workload) error {
	r, err := Simulate(cfg, w)
	if err != nil {
		return err
	}
	d := &r.Detail
	for _, t := range []struct {
		name string
		v    units.Time
	}{
		{"total time", r.Report.Time},
		{"compute time", d.ComputeTime},
		{"stream time", d.StreamTime},
		{"vertex time", d.VertexTime},
	} {
		if t.v < 0 || math.IsNaN(float64(t.v)) || math.IsInf(float64(t.v), 0) {
			return fmt.Errorf("graphr: %s is %v", t.name, t.v)
		}
	}
	if e := r.Report.Energy.Total(); e < 0 || math.IsNaN(float64(e)) {
		return fmt.Errorf("graphr: total energy is %v", e)
	}

	occ, err := partition.ComputeOccupancy(w.Graph, cfg.BlockDim)
	if err != nil {
		return err
	}
	if d.NonEmptyBlocks != occ.NonEmpty {
		return fmt.Errorf("graphr: model saw %d non-empty blocks, occupancy scan says %d",
			d.NonEmptyBlocks, occ.NonEmpty)
	}
	if !relEq(d.Navg, occ.AvgEdgesPerBlk, 1e-12) {
		return fmt.Errorf("graphr: model Navg %v, occupancy scan says %v", d.Navg, occ.AvgEdgesPerBlk)
	}

	// Recompute the Eq. 11/12 compute term from the crossbar design point.
	xbar, err := crossbar.New(cfg.Crossbar)
	if err != nil {
		return err
	}
	e := float64(w.Graph.NumEdges())
	blocks := float64(occ.NonEmpty)
	compute := xbar.ProgramBlock(1).Times(e)
	if w.Program.MVMBased() {
		compute = compute.Plus(xbar.MVM().Times(blocks))
	} else {
		pu := device.NewCMOSPU()
		compute = compute.Plus(xbar.RowWiseOps().Times(blocks)).Plus(pu.Op().Times(e))
	}
	wantCompute := units.Time(float64(compute.Latency) / float64(cfg.Parallel))
	const tol = 1e-9
	if !relEq(float64(d.ComputeTime), float64(wantCompute), tol) {
		return fmt.Errorf("graphr: compute time %v, Eq. 11/12 recomputation says %v", d.ComputeTime, wantCompute)
	}

	iterTime := units.MaxTime(d.ComputeTime, d.StreamTime) + d.VertexTime
	if !relEq(float64(r.Report.Time), float64(iterTime.Times(float64(d.Iterations))), tol) {
		return fmt.Errorf("graphr: total time %v, want iteration time %v × %d",
			r.Report.Time, iterTime, d.Iterations)
	}

	// Functional fidelity: run PageRank through the quantized crossbar
	// emulation at the published 16-bit/4-cell geometry and require the
	// analog path to track the exact ranks.
	if pr, ok := w.Program.(*algo.PageRank); ok && cfg.BlockDim == 8 && pr.Warm == nil {
		q, err := NewQuantizer(16, 4, 1)
		if err != nil {
			return err
		}
		ranks, maxRel, err := PageRankCrossbar(w.Graph, q, pr.Damping, 3)
		if err != nil {
			return err
		}
		if maxRel > 0.10 {
			return fmt.Errorf("graphr: 16-bit crossbar PageRank error %.4f exceeds 10%%", maxRel)
		}
		var sum float64
		for _, rank := range ranks {
			if rank < 0 || math.IsNaN(rank) {
				return fmt.Errorf("graphr: crossbar produced rank %v", rank)
			}
			sum += rank
		}
		if sum <= 0 || sum > 1.5 {
			return fmt.Errorf("graphr: crossbar rank mass %v outside (0, 1.5]", sum)
		}
		if err := checkColumnsVsMVM(w.Graph, q); err != nil {
			return err
		}
	}
	return nil
}

// checkColumnsVsMVM holds the emulation's sparse evaluation against the
// dense reference: every non-empty block of g, rebuilt as a dense 8×8
// code matrix, must give CrossbarMVM's column sums for the first
// iteration's quantized ranks.
func checkColumnsVsMVM(g *graph.Graph, q *Quantizer) error {
	wq, err := NewQuantizer(q.ValueBits, q.CellBits, 1)
	if err != nil {
		return err
	}
	xg := programCrossbar(g, wq)
	codes := make([]uint32, g.NumVertices)
	if _, _, err := quantizeRanks(uniformRanks(g.NumVertices), q, codes); err != nil {
		return err
	}
	cells := make([][]uint32, blockDim)
	for i := range cells {
		cells[i] = make([]uint32, blockDim)
	}
	in := make([]uint32, blockDim)
	for b := 0; b < xg.blocks(); b++ {
		blk := xg.cells[xg.start[b]:xg.start[b+1]]
		for i := range cells {
			clear(cells[i])
		}
		for _, c := range blk {
			cells[c.src%blockDim][c.dst%blockDim] = c.code
		}
		first := int(blk[0].src &^ (blockDim - 1))
		for i := range in {
			in[i] = 0
			if v := first + i; v < g.NumVertices {
				in[i] = codes[v]
			}
		}
		want := q.CrossbarMVM(cells, in)
		col, _ := xg.columns(b, codes)
		for j, got := range col {
			if got != want[j] {
				return fmt.Errorf("graphr: block (%d, %d) column %d: flat sum %d, CrossbarMVM %d",
					blk[0].src/blockDim, blk[0].dst/blockDim, j, got, want[j])
			}
		}
	}
	return nil
}
