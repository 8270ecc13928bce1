package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/units"
)

// Request-accurate execution of one super block (§3.3's hybrid memory
// controller made explicit): every PU issues per-edge requests through
// DES resources — the shared edge channel, the shared off-chip vertex
// channel, each PU's on-chip SRAM port, each PU's arithmetic pipeline —
// and the §3.3 stall rule is enforced structurally: interval transfers
// occupy the SRAM port, so on-chip accesses issued "during scheduling"
// queue behind them.
//
// The block-level cost simulator prices the same schedule with closed
// forms (max-of-stages × edges, serialized transfers). This module exists
// to check that algebra against request-level contention; the tests
// require agreement within a tight band on real workloads.

// SuperBlockTiming is the outcome of a request-accurate super-block run.
type SuperBlockTiming struct {
	// Total is the makespan from first load to last writeback.
	Total units.Time
	// LoadTime, ProcessTime, WritebackTime decompose it at barriers.
	LoadTime      units.Time
	ProcessTime   units.Time
	WritebackTime units.Time
	// Edges processed across all PUs and steps.
	Edges int64
}

// SimulateSuperBlockDES executes super block (sbx, sby) of the workload
// under cfg at request granularity and returns its timing.
func SimulateSuperBlockDES(cfg Config, w Workload, sbx, sby int) (*SuperBlockTiming, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newSim(cfg, w)
	if err != nil {
		return nil, err
	}
	if m.onchip == nil {
		return nil, fmt.Errorf("core: request-level simulation needs the on-chip hierarchy")
	}
	n := cfg.NumPUs
	pn := m.p / n
	if sbx < 0 || sby < 0 || sbx >= pn || sby >= pn {
		return nil, fmt.Errorf("core: super block (%d,%d) out of %d×%d", sbx, sby, pn, pn)
	}

	eng := sim.New(0)
	edgeChannel := sim.NewResource(eng)
	vtxChannel := sim.NewResource(eng)
	// The on-chip vertex memory has a source section and a destination
	// section (§3.2) — independent ports.
	srcPort := make([]*sim.Resource, n)
	dstPort := make([]*sim.Resource, n)
	puPipe := make([]*sim.Resource, n)
	for i := 0; i < n; i++ {
		srcPort[i] = sim.NewResource(eng)
		dstPort[i] = sim.NewResource(eng)
		puPipe[i] = sim.NewResource(eng)
	}

	// Per-operation service times from the same device models the cost
	// simulator uses.
	edgeSize := int64(graph.EdgeBytes)
	if w.Program.NeedsWeights() {
		edgeSize += 4
	}
	edgesPerLine := m.edgeReg.LineBytes() / int(edgeSize)
	if edgesPerLine < 1 {
		edgesPerLine = 1
	}
	edgeLineT := m.edgeReg.Read(true).Latency
	srcReadT := m.onchip.Read(false).Latency.Times(float64(m.words))
	dstRMWT := (m.onchip.Read(false).Latency + m.onchip.Write(false).Latency).Times(float64(m.words))
	puT := m.pu.Op().Latency

	// transfer occupies the vertex channel AND the touched SRAM section's
	// port for the interval's duration (the §3.3 stall).
	transfer := func(after units.Time, port *sim.Resource, interval int, write bool) units.Time {
		bytes := m.intervalBytes(interval)
		lines := (bytes + int64(m.vtxReg.LineBytes()) - 1) / int64(m.vtxReg.LineBytes())
		per := units.MaxTime(m.vtxReg.Read(true).Latency, m.onchip.Cycle())
		if write {
			per = units.MaxTime(m.vtxReg.Write(true).Latency, m.onchip.Cycle())
		}
		dur := per.Times(float64(lines))
		_, chanEnd := vtxChannel.AcquireAt(after, dur)
		// Mirror the occupancy on the section port so PU-side requests
		// stall behind it.
		port.AcquireAt(chanEnd-dur, dur)
		return chanEnd
	}

	st := &SuperBlockTiming{}
	var clock units.Time // barrier clock

	// --- Loading phase.
	loadEnd := clock
	for i := 0; i < n; i++ {
		end := transfer(clock, dstPort[i], sby*n+i, false) // destination interval
		if end > loadEnd {
			loadEnd = end
		}
	}
	for i := 0; i < n; i++ {
		end := transfer(clock, srcPort[i], sbx*n+i, false) // source interval
		if end > loadEnd {
			loadEnd = end
		}
	}
	st.LoadTime = loadEnd - clock
	clock = loadEnd

	// --- Steps.
	processStart := clock
	for step := 0; step < n; step++ {
		stepEnd := clock
		for p := 0; p < n; p++ {
			src := sbx*n + (p+step)%n
			dst := sby*n + p
			blk := m.blockLen(src, dst)
			if blk == 0 {
				continue
			}
			st.Edges += int64(blk)
			ready := clock
			var done units.Time
			for e := 0; e < blk; e++ {
				// One edge-line fetch feeds edgesPerLine edges.
				if e%edgesPerLine == 0 {
					_, lineEnd := edgeChannel.AcquireAt(ready, edgeLineT)
					ready = lineEnd
				}
				_, srcEnd := srcPort[p].AcquireAt(ready, srcReadT)
				_, opEnd := puPipe[p].AcquireAt(srcEnd, puT)
				_, dstEnd := dstPort[p].AcquireAt(opEnd, dstRMWT)
				done = dstEnd
			}
			if done > stepEnd {
				stepEnd = done
			}
		}
		// Synchronizing barrier (Algorithm 2 line 12).
		clock = stepEnd + cfg.SyncOverhead
	}
	st.ProcessTime = clock - processStart

	// --- Writeback phase.
	wbEnd := clock
	for i := 0; i < n; i++ {
		end := transfer(clock, dstPort[i], sby*n+i, true)
		if end > wbEnd {
			wbEnd = end
		}
	}
	st.WritebackTime = wbEnd - clock
	st.Total = wbEnd
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	return st, nil
}

// closedFormSuperBlock assembles the block-level model's estimate for
// the same super block (data-sharing schedule, loads serialized on the
// channel, steps bounded by the per-edge stage maximum), for the
// cross-check tests.
func closedFormSuperBlock(cfg Config, w Workload, sbx, sby int) (units.Time, error) {
	m, err := newSim(cfg, w)
	if err != nil {
		return 0, err
	}
	n := cfg.NumPUs
	stg := m.stages()
	var total units.Time
	for i := 0; i < n; i++ {
		t, _, _ := m.transferCost(m.intervalBytes(sby*n+i), false)
		total += t
		t, _, _ = m.transferCost(m.intervalBytes(sbx*n+i), false)
		total += t
	}
	for step := 0; step < n; step++ {
		var stepMax units.Time
		for p := 0; p < n; p++ {
			blk := m.blockLen(sbx*n+(p+step)%n, sby*n+p)
			if bt := stg.perEdge.Times(float64(blk)); bt > stepMax {
				stepMax = bt
			}
		}
		total += stepMax + cfg.SyncOverhead
	}
	for i := 0; i < n; i++ {
		t, _, _ := m.transferCost(m.intervalBytes(sby*n+i), true)
		total += t
	}
	return total, nil
}
