package cpusim

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/units"
)

func testWorkload(t *testing.T) core.Workload {
	t.Helper()
	g, err := graph.GenerateRMAT(2048, 16384, graph.DefaultRMAT, 123)
	if err != nil {
		t.Fatal(err)
	}
	return core.Workload{DatasetName: "test", Graph: g, Program: algo.NewPageRank()}
}

func TestValidate(t *testing.T) {
	for _, m := range []Model{NXgraph(), Galois()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
	bad := NXgraph()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = NXgraph()
	bad.BytesPerEdge = 0
	if bad.Validate() == nil {
		t.Error("zero traffic accepted")
	}
	bad = NXgraph()
	bad.CacheBytes = 0
	if bad.Validate() == nil {
		t.Error("zero cache accepted")
	}
	bad = NXgraph()
	bad.MissCost = 0
	if bad.Validate() == nil {
		t.Error("zero miss cost accepted")
	}
	bad = NXgraph()
	bad.PackagePower = 0
	if bad.Validate() == nil {
		t.Error("zero power accepted")
	}
}

func TestPerEdgeTimeIsMaxOfBounds(t *testing.T) {
	m := NXgraph()
	// NXgraph at these parameters is memory-bound: 40 B / 17 GB/s ≈ 2.35 ns.
	got := m.PerEdgeTime().Nanoseconds()
	if got < 2 || got > 3 {
		t.Errorf("per-edge time = %v ns, want ≈2.35 (memory-bound)", got)
	}
	// Starve bandwidth: the memory bound must take over proportionally.
	m.MemBandwidthGBs = 1
	if m.PerEdgeTime().Nanoseconds() < 39 {
		t.Errorf("per-edge time did not follow the memory bound: %v ns", m.PerEdgeTime().Nanoseconds())
	}
	// Compute bound: huge bandwidth, one core.
	m = NXgraph()
	m.MemBandwidthGBs = 1000
	m.Cores = 1
	want := m.InstrPerEdge / (m.IPC * m.ClockGHz)
	if got := m.PerEdgeTime().Nanoseconds(); got < want*0.99 || got > want*1.01 {
		t.Errorf("compute-bound per-edge time = %v ns, want %v", got, want)
	}
}

// PassTime by hand: 17 bytes take 1 ns at 17 GB/s; a cached access
// takes one 3.3 GHz cycle; over a 1 MiB working set a quarter of the
// accesses hit the 256 KiB cache and the rest cost 8 ns.
func TestPassTimeByHand(t *testing.T) {
	m := NXgraph()
	cycle := 1 / 3.3
	for _, c := range []struct {
		pass Pass
		ns   float64
	}{
		{Pass{SeqBytes: 17000}, 1000},
		{Pass{Random: 100, WorkingSet: 1024}, 100 * cycle},
		{Pass{Random: 100, WorkingSet: 256 << 10}, 100 * cycle},
		{Pass{Random: 100, WorkingSet: 1 << 20}, 100 * (0.25*cycle + 0.75*8)},
		{Pass{SeqBytes: 34, Random: 10, WorkingSet: 512 << 10}, 2 + 10*(0.5*cycle+0.5*8)},
	} {
		if got := m.PassTime(c.pass).Nanoseconds(); math.Abs(got-c.ns) > 1e-9*c.ns {
			t.Errorf("PassTime(%+v) = %v ns, want %v", c.pass, got, c.ns)
		}
	}
	two := m.PassTime(Pass{SeqBytes: 17000}, Pass{Random: 100, WorkingSet: 1 << 20})
	if math.Abs(two.Nanoseconds()-(1000+100*(0.25*cycle+0.75*8))) > 1e-6 {
		t.Errorf("passes do not add: %v", two)
	}
}

func TestGaloisFasterThanNXgraph(t *testing.T) {
	if Galois().PerEdgeTime() >= NXgraph().PerEdgeTime() {
		t.Error("the optimized baseline must be faster")
	}
}

func TestSimulateReport(t *testing.T) {
	w := testWorkload(t)
	r, err := Simulate(NXgraph(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 10 {
		t.Errorf("iterations = %d", r.Iterations)
	}
	wantTime := NXgraph().PerEdgeTime().Times(float64(r.EdgesProcessed))
	if r.Time != wantTime {
		t.Errorf("time = %v, want %v", r.Time, wantTime)
	}
	// Average power equals package + DRAM.
	wantPower := (85 + 6.0)
	if got := r.AvgPower().Watts(); got < wantPower*0.999 || got > wantPower*1.001 {
		t.Errorf("avg power = %v W, want %v", got, wantPower)
	}
}

// The headline anchor: the accelerator beats the CPU by about two orders
// of magnitude in MTEPS/W.
func TestTwoOrdersOfMagnitudeGap(t *testing.T) {
	w := testWorkload(t)
	cpu, err := Simulate(NXgraph(), w)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := core.Simulate(core.HyVEOpt(), w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := acc.Report.MTEPSPerWatt() / cpu.MTEPSPerWatt()
	if ratio < 30 || ratio > 3000 {
		t.Errorf("HyVE-opt/CPU efficiency ratio = %.0f, want order-100", ratio)
	}
	// CPU efficiency itself is single-digit MTEPS/W on a ~90 W machine.
	if cpu.MTEPSPerWatt() > 30 {
		t.Errorf("CPU efficiency %.1f MTEPS/W implausibly high", cpu.MTEPSPerWatt())
	}
}

func TestSimulateValidation(t *testing.T) {
	w := testWorkload(t)
	if _, err := Simulate(NXgraph(), core.Workload{Program: w.Program}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Simulate(NXgraph(), core.Workload{Graph: w.Graph}); err == nil {
		t.Error("nil program accepted")
	}
	bad := NXgraph()
	bad.IPC = 0
	if _, err := Simulate(bad, w); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestIterationOverride(t *testing.T) {
	w := testWorkload(t)
	w.Iterations = 2
	r, err := Simulate(Galois(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 2 || r.EdgesProcessed != 2*int64(w.Graph.NumEdges()) {
		t.Errorf("override ignored: %d iters, %d edges", r.Iterations, r.EdgesProcessed)
	}
	_ = units.Time(0)
}
