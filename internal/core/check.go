package core

import (
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/device"
	"repro/internal/device/sram"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/units"
)

// PerEdgeStage exposes the Eq. (1) pipeline bound the simulator charges
// per streamed edge — max(T_edge, T_src, T_pu, T_dst) at cfg's operating
// points — so the conformance harness can hold the simulated ProcessTime
// against the analytic model's per-edge term.
func PerEdgeStage(cfg Config, w Workload) (units.Time, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	s, err := newSim(cfg, w)
	if err != nil {
		return 0, err
	}
	return s.stages().perEdge, nil
}

// AnalyticModel instantiates the Eq. 1–16 model for w under cfg: the
// HyVE counts at the simulator's P, the global vertex memory per the
// config, the on-chip SRAM as local memory (the global device in the
// SRAM-less baselines), the raw edge device's sequential read, and the
// CMOS PU op. A custom edge device and the fault layer's ECC are left
// out; callers fold them in through Model.WithEdgeRead.
func AnalyticModel(cfg Config, w Workload) (analytic.Model, error) {
	p, err := ChoosePFor(cfg, w)
	if err != nil {
		return analytic.Model{}, err
	}
	counts, err := analytic.HyVECounts(int64(w.Graph.NumVertices), int64(w.Graph.NumEdges()), p, cfg.NumPUs)
	if err != nil {
		return analytic.Model{}, err
	}
	_, pick, err := chips(cfg)
	if err != nil {
		return analytic.Model{}, err
	}
	global := pick(cfg.VertexMemory)
	local := global
	if cfg.UseOnChipSRAM {
		onchip, err := sram.New(cfg.SRAMBytes)
		if err != nil {
			return analytic.Model{}, err
		}
		local = onchip
	}
	costs := analytic.VertexOps(global, local)
	costs.EdgeRead = pick(cfg.EdgeMemory).Read(true)
	costs.PU = device.NewCMOSPU().Op()
	return analytic.Model{N: counts, C: costs}, nil
}

// approxEq reports a ≈ b within relative tolerance tol (absolute below 1).
func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		diff /= scale
	}
	return diff <= tol && !math.IsNaN(diff)
}

// CheckResult verifies a completed simulation against everything the
// cost model promises: non-negative finite phases and traffic, the
// schedule geometry, the run-time identity Time = IterTime×iters +
// gate latency penalty, gating physics, the Eq. (1) bounds on
// ProcessTime, the closed forms of the per-iteration edge and vertex
// traffic, and — for configurations with the on-chip hierarchy — the
// controller trace's addresses against the memory images.
func CheckResult(cfg Config, w Workload, r *Result) error {
	d := &r.Detail
	for _, t := range []struct {
		name string
		v    units.Time
	}{
		{"total time", r.Report.Time},
		{"load time", d.LoadTime},
		{"process time", d.ProcessTime},
		{"writeback time", d.WritebackTime},
		{"overhead time", d.OverheadTime},
	} {
		if t.v < 0 || math.IsNaN(float64(t.v)) || math.IsInf(float64(t.v), 0) {
			return fmt.Errorf("core: %s is %v", t.name, t.v)
		}
	}
	if d.SrcLoadBytes < 0 || d.DstLoadBytes < 0 || d.WritebackBytes < 0 || d.EdgeBytes < 0 {
		return fmt.Errorf("core: negative traffic counters %+v", d)
	}
	if d.P <= 0 || d.P%cfg.NumPUs != 0 {
		return fmt.Errorf("core: P=%d is not a positive multiple of N=%d", d.P, cfg.NumPUs)
	}
	if d.SuperBlockSide != d.P/cfg.NumPUs {
		return fmt.Errorf("core: super-block side %d, want P/N = %d", d.SuperBlockSide, d.P/cfg.NumPUs)
	}
	if d.Iterations <= 0 || r.Report.Iterations != d.Iterations {
		return fmt.Errorf("core: iteration counts disagree (report %d, detail %d)",
			r.Report.Iterations, d.Iterations)
	}

	const tol = 1e-9
	iters := float64(d.Iterations)
	wantTime := d.IterTime().Times(iters) + d.Gate.LatencyPenalty
	if !approxEq(float64(r.Report.Time), float64(wantTime), tol) {
		return fmt.Errorf("core: total time %v, want IterTime×%d + gate penalty = %v",
			r.Report.Time, d.Iterations, wantTime)
	}

	var sum units.Energy
	for _, c := range energy.Components() {
		e := r.Report.Energy.Get(c)
		if e < 0 || math.IsNaN(float64(e)) {
			return fmt.Errorf("core: %s energy is %v", c, e)
		}
		sum += e
	}
	if !approxEq(float64(sum), float64(r.Report.Energy.Total()), tol) {
		return fmt.Errorf("core: component energies sum to %v, total says %v", sum, r.Report.Energy.Total())
	}

	s, err := newSim(cfg, w)
	if err != nil {
		return err
	}
	if s.p != d.P {
		return fmt.Errorf("core: rebuilt machine picks P=%d, result has %d", s.p, d.P)
	}

	if cfg.PowerGating {
		if err := d.Gate.CheckInvariants(s.gate.TotalBanks); err != nil {
			return err
		}
		if d.Gate.Transitions == 0 {
			return fmt.Errorf("core: power gating enabled but no gate transitions recorded")
		}
		if !approxEq(float64(d.Gate.TotalTime), float64(d.IterTime().Times(iters)), tol) {
			return fmt.Errorf("core: gate integrated time %v, want iteration time %v",
				d.Gate.TotalTime, d.IterTime().Times(iters))
		}
	} else if d.Gate.Transitions != 0 || d.Gate.LatencyPenalty != 0 {
		return fmt.Errorf("core: gating disabled but stats recorded %+v", d.Gate)
	}

	// Eq. (1) bounds: per-iteration streaming is Σ_steps max_p(block), so
	// it sits between a perfectly balanced schedule (|E|/N edges on the
	// critical PU) and a fully serialized one (|E| edges).
	perEdge := s.stages().perEdge
	e := float64(w.Graph.NumEdges())
	lo := perEdge.Times(e / float64(cfg.NumPUs))
	hi := perEdge.Times(e)
	if float64(d.ProcessTime) < float64(lo)*(1-tol) || float64(d.ProcessTime) > float64(hi)*(1+tol) {
		return fmt.Errorf("core: process time %v outside Eq. 1 bounds [%v, %v]", d.ProcessTime, lo, hi)
	}
	edgeSize := int64(graph.EdgeBytes)
	if w.Program.NeedsWeights() {
		edgeSize += 4
	}
	if want := int64(w.Graph.NumEdges()) * edgeSize; d.EdgeBytes != want {
		return fmt.Errorf("core: edge stream bytes %d, want |E|×%d = %d", d.EdgeBytes, edgeSize, want)
	}
	// Vertex traffic in closed form, with V the bytes of every vertex
	// value: with sharing each destination column is loaded and written
	// back once and each source super-interval once per super block;
	// without, destinations bounce per super block and every PU loads
	// each source interval of its super block; SRAM-less moves nothing.
	v := int64(w.Graph.NumVertices) * int64(w.Program.ValueBytes())
	pn := int64(d.SuperBlockSide)
	var src, dst, wb int64
	switch {
	case !cfg.UseOnChipSRAM:
	case cfg.DataSharing:
		src, dst, wb = pn*v, v, v
	default:
		src, dst, wb = int64(d.P)*v, pn*v, pn*v
	}
	if d.SrcLoadBytes != src || d.DstLoadBytes != dst || d.WritebackBytes != wb {
		return fmt.Errorf("core: vertex traffic (src %d, dst %d, wb %d), want (%d, %d, %d) for V = %d bytes",
			d.SrcLoadBytes, d.DstLoadBytes, d.WritebackBytes, src, dst, wb, v)
	}

	if !cfg.UseOnChipSRAM {
		return nil
	}
	return checkTrace(cfg, s, edgeSize)
}

// checkTrace replays one iteration of the controller trace against the
// grid and the memory images: every non-empty block is streamed exactly
// once and whole, and every access stays inside its image.
func checkTrace(cfg Config, s *machine, edgeSize int64) error {
	grid := s.edgeGrid()
	img, edgeOffsets, err := BuildEdgeImageScheduled(grid, cfg.NumPUs)
	if err != nil {
		return err
	}
	vtxOffsets := vertexImageOffsets(s.asg, s.valueBytes)

	blockReads := make(map[[2]int]int)
	var traceErr error
	fail := func(format string, args ...any) {
		if traceErr == nil {
			traceErr = fmt.Errorf(format, args...)
		}
	}
	visit := func(a Access) {
		if traceErr != nil {
			return
		}
		if a.Bytes < 0 {
			fail("core: trace access with negative size: %+v", a)
			return
		}
		switch a.Kind {
		case EdgeBlockRead:
			blockReads[[2]int{a.BlockX, a.BlockY}]++
			if want := int64(grid.BlockLen(a.BlockX, a.BlockY)) * edgeSize; a.Bytes != want || want == 0 {
				fail("core: block (%d,%d) read of %d bytes, grid holds %d",
					a.BlockX, a.BlockY, a.Bytes, want)
				return
			}
			// The image serializes 8-byte edges; modeled weight bytes ride
			// along in Bytes but not in the stored image.
			stored := a.Bytes / edgeSize * graph.EdgeBytes
			if a.Addr < EdgeImageHeaderBytes || a.Addr+stored > int64(len(img)) {
				fail("core: block (%d,%d) read [%d,%d) outside edge image of %d bytes",
					a.BlockX, a.BlockY, a.Addr, a.Addr+stored, len(img))
			}
			if want, aerr := EdgeAddress(edgeOffsets, s.p, a.BlockX, a.BlockY); aerr != nil || want != a.Addr {
				fail("core: block (%d,%d) read at %d, image says %d (%v)", a.BlockX, a.BlockY, a.Addr, want, aerr)
			}
		case SourceLoad, DestLoad, DestWriteback:
			if a.Interval < 0 || a.Interval >= s.p {
				fail("core: trace references interval %d outside [0,%d)", a.Interval, s.p)
				return
			}
			if end := a.Addr + a.Bytes; end != vtxOffsets[a.Interval+1] {
				fail("core: interval %d transfer ends at %d, image boundary is %d",
					a.Interval, end, vtxOffsets[a.Interval+1])
			}
		default:
			fail("core: unknown trace access kind %v", a.Kind)
		}
	}
	if err := s.traceIteration(visit); err != nil {
		return err
	}
	if traceErr != nil {
		return traceErr
	}
	if len(blockReads) != grid.NonEmpty() {
		return fmt.Errorf("core: trace streamed %d distinct blocks, grid has %d non-empty", len(blockReads), grid.NonEmpty())
	}
	for blk, n := range blockReads {
		if n != 1 {
			return fmt.Errorf("core: block (%d,%d) streamed %d times in one iteration", blk[0], blk[1], n)
		}
	}
	return nil
}
