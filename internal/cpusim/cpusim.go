// Package cpusim models the paper's CPU reference points: a hexa-core
// Intel i7 at 3.3 GHz running NXgraph-style in-memory edge-centric
// processing ("CPU+DRAM") and Galois ("CPU+DRAM-opt"), with power
// measured the way the authors measured it — whole-package plus DRAM —
// via Intel PCM (§7.1). The model reproduces that measurement from first
// principles: per-edge time from the memory-traffic bound of an
// edge-centric sweep, package power from the processor's running draw.
//
// The CPU exists in the paper only to anchor the "two orders of
// magnitude" headline; it needs the right order, not cycle accuracy.
// The same model prices the preprocessing passes of Figs. 12 and 19
// (PassTime) from the memory operations each pass performs.
package cpusim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/units"
)

// Model parameterizes a software graph-processing baseline.
type Model struct {
	// Name labels reports ("CPU+DRAM", "CPU+DRAM-opt").
	Name string
	// Cores and ClockGHz describe the processor (hexa-core i7, 3.3 GHz).
	Cores    int
	ClockGHz float64
	// InstrPerEdge and IPC bound the compute rate of the inner loop.
	InstrPerEdge float64
	IPC          float64
	// BytesPerEdge is the effective memory traffic per traversed edge:
	// the 8-byte edge plus the cache-miss-weighted share of 64-byte
	// vertex lines. Locality-optimized systems (Galois) miss less.
	BytesPerEdge float64
	// MemBandwidthGBs is the sustained DRAM bandwidth.
	MemBandwidthGBs float64
	// CacheBytes is the cache a single-threaded pass keeps its random
	// accesses in: the 256 KiB L2 of one core. The shared L3 is not
	// modeled.
	CacheBytes int64
	// MissCost is what one random access costs once it misses that
	// cache: a DRAM access of ~80 ns, overlapped ten deep by the core's
	// line-fill buffers, since a bucketing loop's addresses come from
	// the edge stream and not from earlier loads.
	MissCost units.Time
	// PackagePower and DRAMPower are the PCM-measured running draws.
	PackagePower units.Power
	DRAMPower    units.Power
}

// NXgraph returns the paper's CPU+DRAM baseline: NXgraph-like in-memory
// edge-centric processing, 8 threads pinned to cores.
func NXgraph() Model {
	return Model{
		Name:            "CPU+DRAM",
		Cores:           6,
		ClockGHz:        3.3,
		InstrPerEdge:    12,
		IPC:             2,
		BytesPerEdge:    8 + 32, // edge stream + ~half a line of vertex misses
		MemBandwidthGBs: 17,
		CacheBytes:      256 << 10,
		MissCost:        8 * units.Nanosecond,
		PackagePower:    units.Power(85 * float64(units.Watt)),
		DRAMPower:       units.Power(6 * float64(units.Watt)),
	}
}

// Galois returns the paper's CPU+DRAM-opt baseline: the
// state-of-the-art in-memory system with better locality and a leaner
// inner loop.
func Galois() Model {
	m := NXgraph()
	m.Name = "CPU+DRAM-opt"
	m.InstrPerEdge = 9
	m.BytesPerEdge = 8 + 20
	return m
}

// Validate rejects non-physical parameters.
func (m Model) Validate() error {
	if m.Cores <= 0 || m.ClockGHz <= 0 || m.IPC <= 0 {
		return fmt.Errorf("cpusim: bad core parameters %+v", m)
	}
	if m.InstrPerEdge <= 0 || m.BytesPerEdge <= 0 || m.MemBandwidthGBs <= 0 {
		return fmt.Errorf("cpusim: bad per-edge parameters %+v", m)
	}
	if m.CacheBytes <= 0 || m.MissCost <= 0 {
		return fmt.Errorf("cpusim: bad cache parameters %+v", m)
	}
	if m.PackagePower <= 0 {
		return fmt.Errorf("cpusim: bad power %+v", m)
	}
	return nil
}

// PerEdgeTime is the steady-state wall time per traversed edge: the
// worse of the compute bound (instructions across cores) and the memory
// bound (bytes over sustained bandwidth).
func (m Model) PerEdgeTime() units.Time {
	computeNs := m.InstrPerEdge / (m.IPC * m.ClockGHz * float64(m.Cores))
	memNs := m.BytesPerEdge / m.MemBandwidthGBs
	ns := computeNs
	if memNs > ns {
		ns = memNs
	}
	return units.Time(ns * float64(units.Nanosecond))
}

// Pass is one pass of a preprocessing step, described by the memory
// operations it performs.
type Pass struct {
	// SeqBytes is the traffic the pass streams: edge reads and the
	// write-back of lines it filled.
	SeqBytes int64
	// Random counts the accesses whose address the data picks: bucket
	// counters and cursors, directory probes, appends.
	Random int64
	// WorkingSet is the bytes those accesses spread over.
	WorkingSet int64
}

// PassTime is the time one core takes for the passes. Sequential bytes
// cost the sustained bandwidth. A random access hits the cache with
// the probability that a uniformly chosen line of its working set is
// resident, CacheBytes/WorkingSet capped at 1, and then costs one
// cycle; otherwise it costs MissCost.
func (m Model) PassTime(passes ...Pass) units.Time {
	cycle := 1 / m.ClockGHz
	var ns float64
	for _, p := range passes {
		ns += float64(p.SeqBytes) / m.MemBandwidthGBs
		hit := 1.0
		if p.WorkingSet > m.CacheBytes {
			hit = float64(m.CacheBytes) / float64(p.WorkingSet)
		}
		ns += float64(p.Random) * (hit*cycle + (1-hit)*m.MissCost.Nanoseconds())
	}
	return units.Time(ns * float64(units.Nanosecond))
}

// Simulate runs the workload on the CPU model: functional execution for
// the iteration count, analytic time/energy.
func Simulate(m Model, w core.Workload) (*energy.Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if w.Graph == nil || w.Graph.NumVertices == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if w.Program == nil {
		return nil, fmt.Errorf("cpusim: workload has no program")
	}
	iters := w.Iterations
	var edges int64
	if iters <= 0 {
		fr, err := core.FunctionalSummary(w.Graph, w.Program)
		if err != nil {
			return nil, err
		}
		iters = fr.Iterations
		edges = fr.EdgesProcessed
	} else {
		edges = int64(iters) * int64(w.Graph.NumEdges())
	}

	t := m.PerEdgeTime().Times(float64(edges))
	var bd energy.Breakdown
	bd.Add(energy.Logic, m.PackagePower.Over(t))
	bd.Add(energy.VertexMemoryOffChip, m.DRAMPower.Over(t))

	return &energy.Report{
		Config:         m.Name,
		Algorithm:      w.Program.Name(),
		Dataset:        w.DatasetName,
		Time:           t,
		Energy:         bd,
		EdgesProcessed: edges,
		Iterations:     iters,
	}, nil
}
