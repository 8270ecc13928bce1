// Package graphr models GraphR (Song et al., HPCA'18), the prior
// ReRAM-based graph accelerator the paper compares against in §6 and
// §7.4. GraphR stores the graph in ReRAM main memory, cuts it into
// 8×8-vertex blocks, and processes each non-empty block by *programming*
// its edges into a ReRAM compute crossbar and then performing analog
// matrix-vector reads — MVM-shaped algorithms (PR, SpMV) with one ganged
// read per block (Eq. 11), everything else row-by-row with CMOS operators
// at the output ports (Eq. 12).
//
// The model implements exactly the equations and constants the paper
// uses: crossbar read 29.31 ns / 1.08 pJ, write 50.88 ns / 3.91 nJ,
// 4×4-bit cells per 16-bit value, register-file vertex buffers, and
// vertex traffic N_v,s = 16 × non-empty blocks (Eq. 9).
package graphr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/device/crossbar"
	"repro/internal/device/rram"
	"repro/internal/device/sram"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/units"
)

// Config selects the GraphR machine.
type Config struct {
	// Name labels reports.
	Name string
	// Parallel is the number of crossbar compute units working
	// concurrently (GraphR's graph-engine array).
	Parallel int
	// Crossbar is the compute-crossbar design point.
	Crossbar crossbar.Params
	// RRAM is the global (main) memory device; GraphR is an all-ReRAM
	// design.
	RRAM rram.Config
	// BlockDim is the vertex width of a block (8 in GraphR).
	BlockDim int
}

// Default returns the published GraphR configuration.
func Default() Config {
	return Config{
		Name:     "GraphR",
		Parallel: 32,
		Crossbar: crossbar.GraphRParams(),
		RRAM:     rram.DefaultConfig(),
		BlockDim: 8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Parallel <= 0 {
		return fmt.Errorf("graphr: non-positive parallelism %d", c.Parallel)
	}
	if c.BlockDim <= 0 {
		return fmt.Errorf("graphr: non-positive block dimension %d", c.BlockDim)
	}
	return nil
}

// Detail exposes the model's intermediate quantities.
type Detail struct {
	NonEmptyBlocks int64
	Navg           float64 // Table 1's average edges per non-empty block
	Iterations     int
	ComputeTime    units.Time // crossbar program+read per iteration
	StreamTime     units.Time // edge stream per iteration
	VertexTime     units.Time // global vertex traffic per iteration
}

// Result is a completed GraphR simulation.
type Result struct {
	Report energy.Report
	Detail Detail
}

// Simulate runs the workload on the GraphR model.
func Simulate(cfg Config, w core.Workload) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w.Graph == nil || w.Graph.NumVertices == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if w.Program == nil {
		return nil, fmt.Errorf("graphr: workload has no program")
	}
	xbar, err := crossbar.New(cfg.Crossbar)
	if err != nil {
		return nil, err
	}
	chip, err := rram.New(cfg.RRAM)
	if err != nil {
		return nil, err
	}
	valueBytes := w.Program.ValueBytes()
	words := (valueBytes + 3) / 4

	fullV, fullE := w.FullVertices, w.FullEdges
	if fullV == 0 {
		fullV = int64(w.Graph.NumVertices)
	}
	if fullE == 0 {
		fullE = int64(w.Graph.NumEdges())
	}
	// GraphR's main memory is DIMM-organized like HyVE's edge memory.
	global, err := mem.NewRankedRegion("global", chip, fullE*graph.EdgeBytes+fullV*int64(valueBytes), 8)
	if err != nil {
		return nil, err
	}
	regfile, err := sram.NewRegisterFile(int64(2 * cfg.BlockDim * valueBytes))
	if err != nil {
		return nil, err
	}
	pu := device.NewCMOSPU()

	occ, err := partition.ComputeOccupancy(w.Graph, cfg.BlockDim)
	if err != nil {
		return nil, err
	}

	iters := w.Iterations
	var edgesProcessed int64
	if iters <= 0 {
		fr, err := core.FunctionalSummary(w.Graph, w.Program)
		if err != nil {
			return nil, err
		}
		iters = fr.Iterations
		edgesProcessed = fr.EdgesProcessed
	} else {
		edgesProcessed = int64(iters) * int64(w.Graph.NumEdges())
	}

	e := float64(w.Graph.NumEdges())
	blocks := float64(occ.NonEmpty)

	var bd energy.Breakdown
	var d Detail
	d.NonEmptyBlocks = occ.NonEmpty
	d.Navg = occ.AvgEdgesPerBlk
	d.Iterations = iters

	// --- Per-iteration compute (the crossbars, charged to Logic: in
	// GraphR the crossbar *is* the processing unit, §6.4). Every edge is
	// programmed into a crossbar each time its block is processed.
	program := xbar.ProgramBlock(1).Times(e)
	var reads device.Cost
	var cmosOps device.Cost
	if w.Program.MVMBased() {
		reads = xbar.MVM().Times(blocks)
	} else {
		reads = xbar.RowWiseOps().Times(blocks)
		// Non-MVM algorithms still run a CMOS operator per edge at the
		// output ports (Eq. 12's E_op term).
		cmosOps = device.Cost{Latency: pu.Op().Latency, Energy: pu.Op().Energy}.Times(e)
	}
	compute := program.Plus(reads).Plus(cmosOps)
	bd.Add(energy.Logic, compute.Energy.Times(float64(iters)))
	d.ComputeTime = units.Time(float64(compute.Latency) / float64(cfg.Parallel))

	// --- Per-iteration edge stream from the global ReRAM.
	stream := global.SweepCost(int64(w.Graph.NumEdges())*graph.EdgeBytes, true, false)
	bd.Add(energy.EdgeMemory, stream.Energy.Times(float64(iters)))
	d.StreamTime = stream.Latency

	// --- Per-iteration vertex traffic: Eq. (9) N_v,s = 16·blocks reads,
	// plus one write per vertex, through the register files.
	seqVerts := 2 * float64(cfg.BlockDim) * blocks // 16 per block
	vload := global.SweepCost(int64(seqVerts)*int64(valueBytes), true, false)
	vstore := global.SweepCost(fullVtoLocal(w)*int64(valueBytes), true, true)
	bd.Add(energy.VertexMemoryOffChip, vload.Energy.Times(float64(iters))+vstore.Energy.Times(float64(iters)))
	d.VertexTime = vload.Latency + vstore.Latency

	// Register-file activity: per edge one source read and one
	// destination read-modify-write; per loaded vertex one fill write.
	rf := regfile.Read(false).Energy.Times(e*float64(words)) +
		(regfile.Read(false).Energy + regfile.Write(false).Energy).Times(e*float64(words)) +
		regfile.Write(false).Energy.Times(seqVerts*float64(words))
	bd.Add(energy.VertexMemoryOnChip, rf.Times(float64(iters)))

	// --- Time: compute overlaps the edge stream (program-while-stream);
	// vertex transfers serialize with processing, as in HyVE.
	iterTime := units.MaxTime(d.ComputeTime, d.StreamTime) + d.VertexTime
	total := iterTime.Times(float64(iters))

	// --- Background: global ReRAM (random-access role: not gateable,
	// §4.1) plus register files and crossbar periphery.
	bg := global.Background() +
		units.Power(float64(regfile.Background())*float64(cfg.Parallel)) +
		units.Power(float64(units.Milliwatt)*float64(cfg.Parallel)) // crossbar periphery, 1 mW/unit
	bd.Add(energy.EdgeMemory, bg.Over(total))

	rep := energy.Report{
		Config:         cfg.Name,
		Algorithm:      w.Program.Name(),
		Dataset:        w.DatasetName,
		Time:           total,
		Energy:         bd,
		EdgesProcessed: edgesProcessed,
		Iterations:     iters,
	}

	rec := obs.Default()
	rec.Count("graphr.runs", 1)
	rec.Count("graphr.blocks.nonempty", d.NonEmptyBlocks)
	rec.Count("graphr.edges.processed", edgesProcessed)
	rec.PhaseTime("graphr.phase.compute", d.ComputeTime.Times(float64(iters)))
	rec.PhaseTime("graphr.phase.stream", d.StreamTime.Times(float64(iters)))
	rec.PhaseTime("graphr.phase.vertex", d.VertexTime.Times(float64(iters)))
	rec.PhaseTime("graphr.time.total", total)
	for _, c := range energy.Components() {
		if e := bd.Get(c); e > 0 {
			rec.PhaseEnergy("graphr.energy."+c.String(), e)
		}
	}
	return &Result{Report: rep, Detail: d}, nil
}

// fullVtoLocal returns the per-iteration written vertex count (Eq. 7:
// every vertex written back once), at instance scale.
func fullVtoLocal(w core.Workload) int64 {
	return int64(w.Graph.NumVertices)
}
