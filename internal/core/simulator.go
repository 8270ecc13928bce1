package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/algo"
	"repro/internal/device"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/device/sram"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/units"
)

// Workload binds a graph instance, the full-scale sizes used for
// capacity decisions, and a program.
type Workload struct {
	// DatasetName labels the workload in reports.
	DatasetName string
	// Graph is the instance actually streamed.
	Graph *graph.Graph
	// FullVertices/FullEdges are the capacity-sizing counts. When zero
	// they default to the instance's own sizes. For the paper's
	// down-scaled dataset instances these carry the published full
	// sizes, which keeps the partition count P — and therefore every
	// traffic ratio — identical to the full-scale run (DESIGN.md §1).
	FullVertices int64
	FullEdges    int64
	// Program is the algorithm to execute.
	Program algo.Program
	// Iterations overrides the iteration count; 0 derives it from a
	// functional run of the program.
	Iterations int
	// ActivityFactor is the fraction of edge traversals whose scatter
	// was active; UpdateFactor the fraction that wrote the destination.
	// Zero means unknown: derived from the functional run when
	// Iterations is 0, else treated as 1 (every edge updates). The
	// factors scale update-side dynamic energy (the pipeline still
	// streams every edge, so timing is unaffected).
	ActivityFactor float64
	UpdateFactor   float64
}

// WorkloadFor assembles the standard workload for a paper dataset: the
// memoized dataset instance (Dataset.Load), or, for programs that need
// weights, its weighted sibling (Graph.WithUniformWeights), which shares
// the instance's edge array and is itself memoized. Repeat calls
// therefore return the same *Graph, so its digest and functional run are
// computed once per process.
func WorkloadFor(d graph.Dataset, p algo.Program) (Workload, error) {
	g, err := d.Load()
	if err != nil {
		return Workload{}, err
	}
	if p.NeedsWeights() && !g.Weighted() {
		g = g.WithUniformWeights(8, d.Seed^0x5EED)
	}
	return Workload{
		DatasetName:  d.Name,
		Graph:        g,
		FullVertices: d.FullVertices,
		FullEdges:    d.FullEdges,
		Program:      p,
	}, nil
}

func (w Workload) fullVertices() int64 {
	if w.FullVertices > 0 {
		return w.FullVertices
	}
	return int64(w.Graph.NumVertices)
}

func (w Workload) fullEdges() int64 {
	if w.FullEdges > 0 {
		return w.FullEdges
	}
	return int64(w.Graph.NumEdges())
}

// Detail exposes the per-iteration anatomy of a simulated run, used by
// the optimization experiments (Figs. 14/15/17/18) and tests.
type Detail struct {
	P              int // interval count
	SuperBlockSide int // P / N
	Iterations     int

	// Per-iteration time split.
	LoadTime      units.Time // interval loading (sources + destinations)
	ProcessTime   units.Time // edge streaming through the PUs
	WritebackTime units.Time
	OverheadTime  units.Time // sync + reroute + fills

	// Per-iteration off-chip vertex traffic in bytes.
	SrcLoadBytes   int64
	DstLoadBytes   int64
	WritebackBytes int64
	EdgeBytes      int64

	// Gating outcome over the whole run (zero value when disabled).
	Gate mem.GateStats

	// Fault is the injected-error outcome over the whole run (zero value
	// when the fault layer is disabled).
	Fault fault.Stats
}

// IterTime is the per-iteration wall time.
func (d *Detail) IterTime() units.Time {
	return d.LoadTime + d.ProcessTime + d.WritebackTime + d.OverheadTime
}

// Result is a completed simulation.
type Result struct {
	Report energy.Report
	Detail Detail
}

// routerWordEnergy is the wire+mux energy of moving one 32-bit word
// through the pipelined N×N source router (§4.2). The paper bounds the
// router's latency (5–10 SRAM cycles, hidden by pipelining) and treats
// its energy as small; 2 pJ/word is the on-chip interconnect scale for
// millimeter-range 22 nm wires.
const routerWordEnergy = units.Energy(2)

// gridRowHitRate is the row-buffer hit rate of per-edge vertex accesses
// in the SRAM-less baselines (acc+DRAM, acc+ReRAM). Those configurations
// still run the interval-block schedule, so their "random" vertex
// accesses are confined to the current interval pair — a working set of
// a few hundred DRAM rows spread over the banks — rather than the whole
// graph; most accesses reopen a recently used row. The rate scales with
// the open-row footprint: a DRAM bank exposes an 8 KB page, while a
// ReRAM mat exposes only its 64-byte output line, so ReRAM gets almost
// no reuse (8192/64 = 128× smaller window).
func gridRowHitRate(kind MemKind) float64 {
	if kind == MemDRAM {
		return 0.75
	}
	return 0.05
}

// Simulate runs w under cfg and returns time, energy, and detail.
//
// Simulate is safe to call from concurrent goroutines, including on a
// shared Workload: cfg and w are passed by value, all mutable run state
// (schedule, gate windows, accumulated report) lives in locals created
// here, and the only data reached through w — the graph and the program
// — is read-only by contract (graphs are never mutated after
// generation, programs are stateless; the graph's memos, the block
// offsets among them, are synchronized and coalesce concurrent runs).
// The parallel experiment harness and internal/experiments/race_test.go
// depend on this.
func Simulate(cfg Config, w Workload) (*Result, error) {
	m, err := NewMachine(cfg, w)
	if err != nil {
		return nil, err
	}
	return m.SimulateTraced(nil)
}

// machine holds the assembled simulator for one run.
type machine struct {
	cfg Config
	w   Workload

	edgeDev device.Memory
	vtxDev  device.Memory
	edgeReg *mem.Region
	vtxReg  *mem.Region
	onchip  *sram.SRAM // nil without on-chip vertex memory
	pu      *device.CMOSPU
	gate    *mem.GatedBanks // nil without power gating

	p   int // intervals
	asg *partition.Hashed
	// offsets delimit the P² blocks of the partitioned edge list
	// (partition.SharedBlockOffsets, shared read-only through the
	// graph's memo): the cost model prices from these and asg alone.
	offsets []int64
	// grid is the partitioned edge list itself, built by edgeGrid on
	// the first walk over the edges.
	gridOnce   sync.Once
	grid       *partition.Grid
	valueBytes int
	words      int // 32-bit words per vertex value
	edgeBanks  int // banks across the edge region (all chips)

	// traceParent, when non-nil during run(), parents the run's
	// per-iteration phase spans (set by Machine.SimulateTraced; the
	// cache scheduler passes its point span here).
	traceParent *obs.SpanHandle
}

func newSim(cfg Config, w Workload) (*machine, error) {
	s := &machine{cfg: cfg, w: w, pu: device.NewCMOSPU()}
	s.valueBytes = w.Program.ValueBytes()
	s.words = (s.valueBytes + 3) / 4

	rchip, pick, err := chips(cfg)
	if err != nil {
		return nil, err
	}
	s.edgeDev = pick(cfg.EdgeMemory)
	if cfg.CustomEdgeDevice != nil {
		s.edgeDev = cfg.CustomEdgeDevice
	}
	if cfg.Fault.Enabled {
		// Price the ECC into every edge access before the region is
		// sized: the check cells occupy real array capacity, the decode
		// tree adds per-line latency and energy. With ECCNone the wrap
		// is the identity, so a code-free fault config changes nothing.
		s.edgeDev = fault.Wrap(s.edgeDev, cfg.Fault.ECCParams())
	}
	s.vtxDev = pick(cfg.VertexMemory)

	// Regions sized for the full-scale workload (§3.4 layout: blocks and
	// intervals stored sequentially, plus headers — headers are <1% and
	// folded into the data size).
	edgeBytes := w.fullEdges() * graph.EdgeBytes
	if w.Program.NeedsWeights() {
		edgeBytes += w.fullEdges() * 4
	}
	// The edge memory is main-memory scale and DIMM-organized: a rank of
	// eight x8 devices populates the channel (§3.1 "organized the same
	// way as commodity DRAM counterparts"). The vertex memory is a small
	// dedicated device on the second channel of the §3.3 dual-channel bus.
	if s.edgeReg, err = mem.NewRankedRegion("edge", s.edgeDev, edgeBytes, 8); err != nil {
		return nil, err
	}
	// Edge bank geometry, used by power gating and fault injection: the
	// ReRAM chip's own bank count, or 8 banks per chip for a custom NVM
	// device (banked organization is the commodity norm, §3.1).
	banksPerChip := rchip.NumBanks()
	if cfg.CustomEdgeDevice != nil {
		banksPerChip = 8
	}
	s.edgeBanks = banksPerChip * s.edgeReg.Chips
	if s.vtxReg, err = mem.NewRegion("vertex", s.vtxDev, w.fullVertices()*int64(s.valueBytes)); err != nil {
		return nil, err
	}

	if cfg.UseOnChipSRAM {
		if s.onchip, err = sram.New(cfg.SRAMBytes); err != nil {
			return nil, err
		}
	}
	if s.p, err = ChoosePFor(cfg, w); err != nil {
		return nil, err
	}

	if s.asg, err = partition.NewHashed(w.Graph.NumVertices, s.p); err != nil {
		return nil, err
	}
	if s.offsets, err = partition.SharedBlockOffsets(w.Graph, s.asg, cfg.Parallelism); err != nil {
		return nil, err
	}

	if cfg.PowerGating {
		// Leakage split for gating: the ReRAM chip's calibrated values
		// when it is the edge device; a custom NVM device has its
		// background split pro rata across its banks.
		bankLeak := rchip.BankLeakage()
		ioLeak := rchip.IOLeakage()
		if cfg.CustomEdgeDevice != nil {
			bankLeak = units.Power(float64(s.edgeDev.Background()) * 0.8 / float64(banksPerChip))
			ioLeak = units.Power(float64(s.edgeDev.Background()) * 0.2)
		}
		s.gate, err = mem.NewGatedBanks(cfg.Gate, bankLeak, s.edgeBanks,
			units.Power(float64(ioLeak)*float64(s.edgeReg.Chips)))
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// chips builds cfg's raw ReRAM and DRAM chips and returns the ReRAM
// chip and a map from memory kind to its chip.
func chips(cfg Config) (*rram.Chip, func(MemKind) device.Memory, error) {
	rchip, err := rram.New(cfg.RRAM)
	if err != nil {
		return nil, nil, err
	}
	dchip, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, nil, err
	}
	return rchip, func(k MemKind) device.Memory {
		if k == MemReRAM {
			return rchip
		}
		return dchip
	}, nil
}

// blockLen returns the number of edges in block (x, y).
func (s *machine) blockLen(x, y int) int {
	b := x*s.p + y
	return int(s.offsets[b+1] - s.offsets[b])
}

// edgeGrid returns the partitioned edge list, building it on the first
// call: only the code that walks edges needs it (the blocked functional
// run, the trace and its edge image), never the cost model. newSim has
// already refused every input the build refuses, so a failure here is a
// bug.
func (s *machine) edgeGrid() *partition.Grid {
	s.gridOnce.Do(func() {
		grid, err := partition.BuildParallel(s.w.Graph, s.asg, s.cfg.Parallelism)
		if err != nil {
			panic(fmt.Sprintf("core: grid build of an assembled machine failed: %v", err))
		}
		s.grid = grid
	})
	return s.grid
}

// ChoosePFor returns the interval count the simulator will partition
// w's graph into under cfg — the same decision newSim makes, exposed so
// callers that need only P (the analytic models) do not assemble a
// machine to learn it.
func ChoosePFor(cfg Config, w Workload) (int, error) {
	if cfg.UseOnChipSRAM {
		// P from full-scale vertices so partition counts match the
		// paper's machine; clamped to the instance so intervals are
		// non-empty.
		p, err := partition.ChooseP(w.fullVertices(), int(cfg.SRAMBytes), w.Program.ValueBytes(), cfg.NumPUs)
		if err != nil {
			return 0, err
		}
		return clampP(p, w.Graph.NumVertices, cfg.NumPUs), nil
	}
	// Without on-chip vertex memory the schedule degenerates to N
	// parallel streams; keep one interval per PU for block shape.
	return clampP(cfg.NumPUs, w.Graph.NumVertices, cfg.NumPUs), nil
}

// clampP keeps P a positive multiple of n that does not exceed the
// instance vertex count.
func clampP(p, numVertices, n int) int {
	if p > numVertices {
		p = numVertices / n * n
	}
	if p < n {
		p = n
	}
	return p
}

// stageCosts are the per-edge pipeline stages of Eq. (1):
// max(T_edge, T_src, T_pu, T_dst) bounds the streaming rate.
type stageCosts struct {
	perEdge units.Time

	edgeEnergy units.Energy // edge memory share per edge
	srcEnergy  units.Energy // source vertex read per edge
	dstRead    units.Energy // destination read per edge (always: the gather compares)
	dstWrite   units.Energy // destination write per *updating* edge
	puEnergy   units.Energy // control + sequencing per edge
	puOpEnergy units.Energy // arithmetic op per *active* edge
	srcOffchip bool         // source/destination accesses hit the off-chip region
	activity   float64      // fraction of edges whose scatter fired
	updates    float64      // fraction of edges that wrote the destination
}

// perEdgeEnergy folds the activity factors into one edge's dynamic cost.
func (st *stageCosts) vertexEnergy() units.Energy {
	return st.srcEnergy + st.dstRead + st.dstWrite.Times(st.updates)
}

func (st *stageCosts) logicEnergy() units.Energy {
	return st.puEnergy + st.puOpEnergy.Times(st.activity)
}

func (s *machine) stages() stageCosts {
	edgeLine := s.edgeReg.Read(true)
	edgeSize := int64(graph.EdgeBytes)
	if s.w.Program.NeedsWeights() {
		edgeSize += 4
	}
	edgesPerLine := float64(s.edgeReg.LineBytes()) / float64(edgeSize)
	if edgesPerLine < 1 {
		edgesPerLine = 1
	}
	// N PU streams share the edge channel.
	edgeStage := units.Time(float64(edgeLine.Latency) * float64(s.cfg.NumPUs) / edgesPerLine)

	var st stageCosts
	st.edgeEnergy = units.Energy(float64(edgeLine.Energy) / edgesPerLine)
	st.puEnergy = s.pu.CtrlEnergy
	st.puOpEnergy = s.pu.Op().Energy
	st.activity = 1
	st.updates = 1
	if s.w.ActivityFactor > 0 {
		st.activity = s.w.ActivityFactor
	}
	if s.w.UpdateFactor > 0 {
		st.updates = s.w.UpdateFactor
	}
	puStage := s.pu.Op().Latency

	var srcStage, dstStage units.Time
	if s.onchip != nil {
		rd, wr := s.onchip.Read(false), s.onchip.Write(false)
		srcStage = rd.Latency.Times(float64(s.words))
		dstStage = (rd.Latency + wr.Latency).Times(float64(s.words))
		st.srcEnergy = rd.Energy.Times(float64(s.words))
		st.dstRead = rd.Energy.Times(float64(s.words))
		st.dstWrite = wr.Energy.Times(float64(s.words))
	} else {
		// Interval-confined accesses: blend open-row and full-activation
		// costs at the device's schedule-induced hit rate.
		h := gridRowHitRate(s.cfg.VertexMemory)
		blend := func(hit, miss device.Cost) device.Cost {
			return hit.Times(h).Plus(miss.Times(1 - h))
		}
		rd := blend(s.vtxReg.Read(true), s.vtxReg.Read(false))
		wr := blend(s.vtxReg.Write(true), s.vtxReg.Write(false))
		srcStage = rd.Latency
		dstStage = rd.Latency + wr.Latency
		st.srcEnergy = rd.Energy
		st.dstRead = rd.Energy
		st.dstWrite = wr.Energy
		st.srcOffchip = true
	}
	st.perEdge = units.MaxTime(edgeStage, srcStage, puStage, dstStage)
	return st
}

// intervalBytes returns the vertex-value bytes of interval i.
func (s *machine) intervalBytes(i int) int64 {
	return int64(s.asg.IntervalLen(i)) * int64(s.valueBytes)
}

// transferCost models moving an interval between the off-chip vertex
// memory and an on-chip section through the load port: the stream issues
// one off-chip line per max(off-chip line interval, SRAM cycle), and
// energy is charged on both sides (per-line off-chip, per-word on-chip).
func (s *machine) transferCost(bytes int64, toOffchip bool) (units.Time, units.Energy, units.Energy) {
	if bytes <= 0 {
		return 0, 0, 0
	}
	lines := device.Lines(s.vtxDev, bytes)
	var off device.Cost
	if toOffchip {
		off = s.vtxReg.Write(true)
	} else {
		off = s.vtxReg.Read(true)
	}
	interval := units.MaxTime(off.Latency, s.onchip.Cycle())
	t := interval.Times(float64(lines))
	offE := off.Energy.Times(float64(lines))
	words := float64((bytes + 3) / 4)
	var onE units.Energy
	if toOffchip {
		onE = s.onchip.Read(true).Energy.Times(words)
	} else {
		onE = s.onchip.Write(true).Energy.Times(words)
	}
	return t, offE, onE
}

// run walks Algorithm 2 once to price an iteration, derives the
// iteration count from a functional run (or the workload override), and
// assembles the report.
func (s *machine) run() (*Result, error) {
	iters := s.w.Iterations
	var edgesProcessed int64
	if iters <= 0 {
		fr, err := FunctionalSummary(s.w.Graph, s.w.Program)
		if err != nil {
			return nil, err
		}
		iters = fr.Iterations
		edgesProcessed = fr.EdgesProcessed
		if s.w.ActivityFactor == 0 {
			s.w.ActivityFactor = fr.ActivityRatio()
		}
		if s.w.UpdateFactor == 0 {
			s.w.UpdateFactor = fr.UpdateRatio()
		}
	} else {
		edgesProcessed = int64(iters) * int64(s.w.Graph.NumEdges())
	}

	iterTime, iterBD, detail := s.iterationCost(nil)
	detail.Iterations = iters

	totalTime := iterTime.Times(float64(iters))
	var bd energy.Breakdown
	for it := 0; it < iters; it++ {
		bd.AddAll(&iterBD)
	}

	// Background energy over the whole run.
	bd.Add(energy.VertexMemoryOffChip, s.vtxReg.Background().Over(totalTime))
	if s.onchip != nil {
		perPU := s.onchip.Background()
		bd.Add(energy.VertexMemoryOnChip, units.Power(float64(perPU)*float64(s.cfg.NumPUs)).Over(totalTime))
	}
	bd.Add(energy.Logic, units.Power(float64(s.pu.Leakage)*float64(s.cfg.NumPUs)).Over(totalTime))

	// Edge memory background: gated (streaming windows only) or full.
	if s.gate != nil {
		banksTouched := s.banksTouched()
		for it := 0; it < iters; it++ {
			ge, penalty := s.gate.Streaming(detail.ProcessTime, banksTouched)
			bd.Add(energy.EdgeMemory, ge)
			bd.Add(energy.EdgeMemory, s.gate.Idle(iterTime-detail.ProcessTime))
			totalTime += penalty
		}
		detail.Gate = s.gate.Stats()
	} else {
		bd.Add(energy.EdgeMemory, s.edgeReg.Background().Over(totalTime))
	}

	if s.cfg.Fault.Enabled {
		if err := s.injectFaults(&bd, &totalTime, &detail, iters); err != nil {
			return nil, err
		}
	}

	rep := energy.Report{
		Config:         s.cfg.Name,
		Algorithm:      s.w.Program.Name(),
		Dataset:        s.w.DatasetName,
		Time:           totalTime,
		Energy:         bd,
		EdgesProcessed: edgesProcessed,
		Iterations:     iters,
	}
	s.report(&rep, &detail)
	return &Result{Report: rep, Detail: detail}, nil
}

// banksTouched returns how many edge banks the streamed edge data
// occupies: the stream fills banks sequentially from bank 0 (§3.4
// layout), so the footprint is a prefix of the bank space.
func (s *machine) banksTouched() int {
	edgeBytesUsed := s.w.fullEdges() * graph.EdgeBytes
	bankBytes := s.edgeDev.CapacityBytes() / int64(s.edgeBanks/s.edgeReg.Chips)
	return int((edgeBytesUsed + bankBytes - 1) / bankBytes)
}

// injectFaults runs the seeded error processes over the finished run's
// edge-stream footprint and prices the resilience machinery into it:
// every corrected word pays the ECC shift-and-flip, whole-bank hard
// failures consume spares one-for-one (the spare inherits the victim's
// gate schedule — mem.BankRemap — so gating statistics are invariant),
// and the run aborts with ErrBankLoss / ErrUncorrectable when the
// damage exceeds what the configured resilience can absorb.
func (s *machine) injectFaults(bd *energy.Breakdown, totalTime *units.Time, d *Detail, iters int) error {
	inj, err := fault.NewInjector(s.cfg.Fault)
	if err != nil {
		return err
	}
	lineBytes := s.edgeReg.LineBytes()
	linesPerIter := (d.EdgeBytes + int64(lineBytes) - 1) / int64(lineBytes)
	stats, err := inj.Sweep(linesPerIter, lineBytes, iters)
	if err != nil {
		return err
	}

	// Whole-bank hard failures among the banks the stream occupies.
	touched := s.banksTouched()
	if touched > s.edgeBanks {
		touched = s.edgeBanks
	}
	if victims := inj.Victims(touched); len(victims) > 0 {
		remap, err := mem.NewBankRemap(s.edgeBanks, s.cfg.Fault.SpareBanks)
		if err != nil {
			return err
		}
		stats.BanksFailed = int64(len(victims))
		for _, b := range victims {
			if _, err := remap.Fail(b); err != nil {
				stats.BanksRemapped = int64(remap.Remapped())
				d.Fault = stats
				return fmt.Errorf("core: %w: %v", fault.ErrBankLoss, err)
			}
		}
		stats.BanksRemapped = int64(remap.Remapped())
		// The spares replay the victims' gate windows verbatim, so
		// Detail.Gate needs no adjustment — remapping is gate-invariant.
	}

	ecc := inj.ECC()
	if stats.Corrected > 0 {
		*totalTime += ecc.CorrectLatency.Times(float64(stats.Corrected))
		bd.Add(energy.EdgeMemory, ecc.CorrectEnergy.Times(float64(stats.Corrected)))
	}
	d.Fault = stats
	if s.cfg.Fault.AbortOnUncorrectable && stats.Uncorrectable > 0 {
		return fmt.Errorf("core: %d words: %w", stats.Uncorrectable, fault.ErrUncorrectable)
	}
	return nil
}

// report publishes the finished run to the process-global recorder as
// first-class named metrics: the Algorithm 2 phase anatomy, the Fig. 17
// energy components, the off-chip traffic, and the gating outcome.
// Reporting happens once per run — never per edge — so the hot path is
// untouched, and the default no-op recorder reduces the whole call to a
// handful of interface calls.
func (s *machine) report(rep *energy.Report, d *Detail) {
	rec := obs.Default()
	iters := float64(d.Iterations)
	rec.Count("sim.runs", 1)
	rec.Count("sim.iterations", int64(d.Iterations))
	rec.Count("sim.edges.processed", rep.EdgesProcessed)
	rec.PhaseTime("sim.phase.load", d.LoadTime.Times(iters))
	rec.PhaseTime("sim.phase.process", d.ProcessTime.Times(iters))
	rec.PhaseTime("sim.phase.writeback", d.WritebackTime.Times(iters))
	rec.PhaseTime("sim.phase.overhead", d.OverheadTime.Times(iters))
	rec.PhaseTime("sim.time.total", rep.Time)
	for _, c := range energy.Components() {
		if e := rep.Energy.Get(c); e > 0 {
			rec.PhaseEnergy("sim.energy."+c.String(), e)
		}
	}
	rec.Count("sim.bytes.src-load", int64(iters)*d.SrcLoadBytes)
	rec.Count("sim.bytes.dst-load", int64(iters)*d.DstLoadBytes)
	rec.Count("sim.bytes.writeback", int64(iters)*d.WritebackBytes)
	rec.Count("sim.bytes.edge-stream", int64(iters)*d.EdgeBytes)
	if d.Gate.Transitions > 0 {
		rec.Count("sim.gate.transitions", d.Gate.Transitions)
		rec.PhaseTime("sim.gate.awake-bank", d.Gate.AwakeBankTime)
		rec.PhaseEnergy("sim.gate.saved", d.Gate.UngatedEnergy-d.Gate.GatedEnergy)
	}
	if s.cfg.Fault.Enabled {
		rec.Count("fault.injected", d.Fault.Injected)
		rec.Count("fault.corrected", d.Fault.Corrected)
		rec.Count("fault.detected", d.Fault.Detected)
		rec.Count("fault.uncorrectable", d.Fault.Uncorrectable)
		rec.Count("fault.silent", d.Fault.Silent)
		rec.Count("mem.banks_remapped", d.Fault.BanksRemapped)
	}
	s.emitPhaseSpans(d)
}

// maxTracedIterations caps the per-iteration phase spans one run emits:
// past this the trace adds repetition, not information (the model's
// per-iteration split is uniform), and a pathological iteration count
// must not monopolize the bounded trace ring.
const maxTracedIterations = 32

// emitPhaseSpans reconstructs the run's Algorithm 2 timeline as
// simulated-timebase spans — load/process/writeback/overhead per
// iteration, sequential from t=0 — parented under the scheduler's point
// span (or a fresh root for direct core.Simulate callers), so a span
// trace nests run → experiment → point → phase. Free when tracing is
// disabled.
func (s *machine) emitPhaseSpans(d *Detail) {
	if !obs.TracingEnabled() {
		return
	}
	parent := s.traceParent
	track := "sim " + s.cfg.Name + "/" + s.w.DatasetName
	if parent == nil {
		var root *obs.SpanHandle
		_, root = obs.StartSpan(context.Background(), track,
			"config", s.cfg.Name, "dataset", s.w.DatasetName)
		defer root.End()
		parent = root
	}
	phases := [4]struct {
		name string
		dur  units.Time
	}{
		{"load", d.LoadTime},
		{"process", d.ProcessTime},
		{"writeback", d.WritebackTime},
		{"overhead", d.OverheadTime},
	}
	iters := d.Iterations
	if iters > maxTracedIterations {
		parent.SetAttr("iterations_traced",
			fmt.Sprintf("%d of %d", maxTracedIterations, iters))
		iters = maxTracedIterations
	}
	var t units.Time
	for it := 0; it < iters; it++ {
		for _, ph := range phases {
			if ph.dur <= 0 {
				continue
			}
			obs.AddSimSpan(parent, track, ph.name, t, ph.dur)
			t += ph.dur
		}
	}
}

// walkObserver watches iterationCost's walk over Algorithm 2:
// BuildTimeline draws what it sees and TraceIteration addresses it. Each
// call carries the walk's own running clock as at, so an observer places
// every charge where the cost model put it, to the bit.
type walkObserver interface {
	// access sees an interval transfer through the load port or a PU's
	// read of a non-empty block, charged dur from at. a is the Access
	// the walk is about to charge, with Addr left to the observer.
	access(a Access, at, dur units.Time)
	// overhead sees time charged to no transfer or block: the "stream
	// fill" at iteration start and, at the end of a step of super block
	// (x, y), the "stream redirect", the router's "reroute" and the
	// "sync" barrier.
	overhead(name string, x, y, step int, at, dur units.Time)
}

// iterationCost walks one full pass of Algorithm 2 over the P×P blocks
// and returns its time, dynamic energy, and phase detail. The walk is
// exact: every block's edge count prices its step, every interval's true
// length prices its transfers; no edge is read. It is the one loop nest
// over the schedule: o, when non-nil, sees every charge as it is made.
func (s *machine) iterationCost(o walkObserver) (units.Time, energy.Breakdown, Detail) {
	var bd energy.Breakdown
	var d Detail
	d.P = s.p
	n := s.cfg.NumPUs
	pn := s.p / n
	d.SuperBlockSide = pn
	st := s.stages()

	var total units.Time
	// One stream fill at iteration start (the edge memory is a
	// continuous read-only stream thereafter, §3.1).
	fill := s.edgeReg.Read(false).Latency
	if o != nil {
		o.overhead("stream fill", 0, 0, -1, 0, fill)
	}
	total += fill
	d.OverheadTime += fill

	edgeSize := int64(graph.EdgeBytes)
	if s.w.Program.NeedsWeights() {
		edgeSize += 4
	}

	// A transfer's cost depends on the interval's length alone, so each
	// interval's load and writeback are priced once per walk, not once
	// per visit. A machine of up to 32 intervals keeps the table on the
	// stack: at that size an allocation costs more than the table saves.
	type charge struct {
		t       units.Time
		off, on units.Energy
	}
	var small [32][2]charge
	var charges [][2]charge // per interval: load, writeback
	if s.onchip != nil {
		if s.p <= len(small) {
			charges = small[:s.p]
		} else {
			charges = make([][2]charge, s.p)
		}
		for i := range charges {
			ld, wb := &charges[i][0], &charges[i][1]
			ld.t, ld.off, ld.on = s.transferCost(s.intervalBytes(i), false)
			wb.t, wb.off, wb.on = s.transferCost(s.intervalBytes(i), true)
		}
	}

	// transfer moves interval iv between the off-chip vertex memory and
	// PU pu's on-chip section, in the direction kind names.
	transfer := func(kind AccessKind, iv, pu, x, y, step int) {
		bytes := s.intervalBytes(iv)
		c := charges[iv][0]
		if kind == DestWriteback {
			c = charges[iv][1]
		}
		if o != nil {
			o.access(Access{Kind: kind, Bytes: bytes, PU: pu, Interval: iv,
				SuperBlockX: x, SuperBlockY: y, Step: step}, total, c.t)
		}
		bd.Add(energy.VertexMemoryOffChip, c.off)
		bd.Add(energy.VertexMemoryOnChip, c.on)
		total += c.t
		switch kind {
		case SourceLoad:
			d.SrcLoadBytes += bytes
			d.LoadTime += c.t
		case DestLoad:
			d.DstLoadBytes += bytes
			d.LoadTime += c.t
		default:
			d.WritebackBytes += bytes
			d.WritebackTime += c.t
		}
	}

	for y := 0; y < pn; y++ {
		for x := 0; x < pn; x++ {
			if s.onchip != nil {
				// Destination intervals: with sharing they stay on-chip
				// for the whole y-column; without, they bounce per
				// super block (Fig. 14 baseline).
				if (s.cfg.DataSharing && x == 0) || !s.cfg.DataSharing {
					for i := 0; i < n; i++ {
						transfer(DestLoad, y*n+i, i, x, y, -1)
					}
				}
				// Source intervals: shared mode loads each once per
				// super block.
				if s.cfg.DataSharing {
					for i := 0; i < n; i++ {
						transfer(SourceLoad, x*n+i, i, x, y, -1)
					}
				}
			}

			for step := 0; step < n; step++ {
				if s.onchip != nil && !s.cfg.DataSharing {
					// Every PU fetches the source interval it is about
					// to consume from off-chip (serialized on the
					// channel) — the reloading the router scheme avoids.
					for p := 0; p < n; p++ {
						transfer(SourceLoad, x*n+(p+step)%n, p, x, y, step)
					}
				}
				at := total
				var stepMax units.Time
				for p := 0; p < n; p++ {
					src := x*n + (p+step)%n
					dst := y*n + p
					blkLen := s.blockLen(src, dst)
					if blkLen == 0 {
						continue
					}
					bt := st.perEdge.Times(float64(blkLen))
					if o != nil {
						o.access(Access{Kind: EdgeBlockRead, Bytes: int64(blkLen) * edgeSize, PU: p,
							BlockX: src, BlockY: dst, SuperBlockX: x, SuperBlockY: y, Step: step}, at, bt)
					}
					if bt > stepMax {
						stepMax = bt
					}
					e := float64(blkLen)
					bd.Add(energy.EdgeMemory, st.edgeEnergy.Times(e))
					bd.Add(energy.Logic, st.logicEnergy().Times(e))
					if st.srcOffchip {
						bd.Add(energy.VertexMemoryOffChip, st.vertexEnergy().Times(e))
					} else {
						bd.Add(energy.VertexMemoryOnChip, st.vertexEnergy().Times(e))
						if s.cfg.DataSharing && step > 0 {
							// Remote source interval through the router.
							bd.Add(energy.Router, routerWordEnergy.Times(e*float64(s.words)))
						}
					}
					d.EdgeBytes += int64(blkLen) * edgeSize
				}
				d.ProcessTime += stepMax
				if stepMax > 0 {
					// Each PU's block starts at a fresh edge-memory
					// region: the stream redirects and pays one array
					// access latency before refilling (the per-block
					// cost behind Fig. 18's slight HyVE degradation).
					if o != nil {
						o.overhead("stream redirect", x, y, step, at+stepMax, fill)
					}
					stepMax += fill
					d.OverheadTime += fill
				}
				total += stepMax

				if s.cfg.DataSharing && step > 0 {
					r := s.onchip.Cycle().Times(float64(s.cfg.RerouteCycles))
					if o != nil {
						o.overhead("reroute", x, y, step, total, r)
					}
					total += r
					d.OverheadTime += r
				}
				if o != nil {
					o.overhead("sync", x, y, step, total, s.cfg.SyncOverhead)
				}
				total += s.cfg.SyncOverhead
				d.OverheadTime += s.cfg.SyncOverhead
			}

			if s.onchip != nil && (!s.cfg.DataSharing || x == pn-1) {
				// Write destinations back (Algorithm 2 "Updating").
				for i := 0; i < n; i++ {
					transfer(DestWriteback, y*n+i, i, x, y, -1)
				}
			}
		}
	}
	return total, bd, d
}
