package core

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/units"
)

func testWorkload(t *testing.T, progName string) Workload {
	t.Helper()
	g, err := graph.GenerateRMAT(2048, 16384, graph.DefaultRMAT, 123)
	if err != nil {
		t.Fatal(err)
	}
	p, err := algo.ByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	if p.NeedsWeights() {
		graph.AttachUniformWeights(g, 4, 55)
	}
	return Workload{DatasetName: "test", Graph: g, Program: p}
}

func simulate(t *testing.T, cfg Config, w Workload) *Result {
	t.Helper()
	r, err := Simulate(cfg, w)
	if err != nil {
		t.Fatalf("Simulate(%s): %v", cfg.Name, err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := HyVE()
	bad.NumPUs = 0
	if bad.Validate() == nil {
		t.Error("zero PUs accepted")
	}
	bad = HyVE()
	bad.SRAMBytes = 0
	if bad.Validate() == nil {
		t.Error("SRAM enabled with zero capacity accepted")
	}
	bad = AccDRAM()
	bad.DataSharing = true
	if bad.Validate() == nil {
		t.Error("data sharing without SRAM accepted")
	}
	bad = SRAMDRAM()
	bad.PowerGating = true
	if bad.Validate() == nil {
		t.Error("power gating on DRAM edge memory accepted")
	}
	for _, cfg := range Fig16Configs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestPresetBindings(t *testing.T) {
	h := HyVE()
	if h.EdgeMemory != MemReRAM || h.VertexMemory != MemDRAM || !h.UseOnChipSRAM {
		t.Error("HyVE bindings wrong")
	}
	if h.DataSharing || h.PowerGating {
		t.Error("base HyVE must not include the §4 optimizations")
	}
	opt := HyVEOpt()
	if !opt.DataSharing || !opt.PowerGating {
		t.Error("HyVE-opt must enable both optimizations")
	}
	sd := SRAMDRAM()
	if sd.EdgeMemory != MemDRAM {
		t.Error("SD must use a DRAM edge memory")
	}
	if AccDRAM().UseOnChipSRAM || AccReRAM().UseOnChipSRAM {
		t.Error("acc+DRAM / acc+ReRAM must not have on-chip vertex memory")
	}
	if AccReRAM().VertexMemory != MemReRAM {
		t.Error("acc+ReRAM vertex memory must be ReRAM")
	}
}

// The blocked Algorithm 2 schedule must compute exactly what the flat
// edge-centric oracle computes — for every program.
func TestFunctionalEquivalence(t *testing.T) {
	for _, name := range []string{"PR", "BFS", "CC", "SSSP", "SpMV"} {
		t.Run(name, func(t *testing.T) {
			w := testWorkload(t, name)
			want, err := algo.Run(w.Program, w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFunctional(HyVEOpt(), w)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("iterations: %d vs %d", got.Iterations, want.Iterations)
			}
			if got.EdgesProcessed != want.EdgesProcessed {
				t.Errorf("edges processed: %d vs %d", got.EdgesProcessed, want.EdgesProcessed)
			}
			for v := range want.Values {
				a, b := got.Values[v], want.Values[v]
				if math.IsInf(a, 1) && math.IsInf(b, 1) {
					continue
				}
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("vertex %d: %v vs %v", v, a, b)
				}
			}
		})
	}
}

func TestSimulateProducesSaneReport(t *testing.T) {
	w := testWorkload(t, "PR")
	r := simulate(t, HyVE(), w)
	if r.Report.Time <= 0 {
		t.Error("non-positive time")
	}
	if r.Report.Energy.Total() <= 0 {
		t.Error("non-positive energy")
	}
	if r.Report.Iterations != 10 {
		t.Errorf("PR iterations = %d, want 10", r.Report.Iterations)
	}
	if want := int64(10) * int64(w.Graph.NumEdges()); r.Report.EdgesProcessed != want {
		t.Errorf("edges processed = %d, want %d", r.Report.EdgesProcessed, want)
	}
	if r.Report.MTEPSPerWatt() <= 0 {
		t.Error("non-positive MTEPS/W")
	}
	if r.Detail.P%8 != 0 {
		t.Errorf("P = %d not a multiple of N", r.Detail.P)
	}
	// All edges must be streamed each iteration.
	edgeSize := int64(graph.EdgeBytes)
	if want := int64(w.Graph.NumEdges()) * edgeSize; r.Detail.EdgeBytes != want {
		t.Errorf("edge bytes = %d, want %d", r.Detail.EdgeBytes, want)
	}
}

// Fig. 14: data sharing improves energy efficiency by cutting off-chip
// vertex traffic.
func TestDataSharingImproves(t *testing.T) {
	for _, name := range []string{"BFS", "CC", "PR"} {
		w := testWorkload(t, name)
		base := simulate(t, HyVE(), w)
		shared := HyVE()
		shared.DataSharing = true
		opt := simulate(t, shared, w)
		if opt.Detail.SrcLoadBytes >= base.Detail.SrcLoadBytes {
			t.Errorf("%s: sharing did not cut source loads (%d vs %d)",
				name, opt.Detail.SrcLoadBytes, base.Detail.SrcLoadBytes)
		}
		if opt.Report.MTEPSPerWatt() <= base.Report.MTEPSPerWatt() {
			t.Errorf("%s: sharing did not improve MTEPS/W (%.1f vs %.1f)",
				name, opt.Report.MTEPSPerWatt(), base.Report.MTEPSPerWatt())
		}
	}
}

// Fig. 15: power gating improves energy efficiency without touching
// dynamic behaviour.
func TestPowerGatingImproves(t *testing.T) {
	w := testWorkload(t, "PR")
	base := simulate(t, HyVE(), w)
	gated := HyVE()
	gated.PowerGating = true
	opt := simulate(t, gated, w)
	if opt.Report.Energy.Total() >= base.Report.Energy.Total() {
		t.Errorf("gating did not reduce energy: %v vs %v",
			opt.Report.Energy.Total(), base.Report.Energy.Total())
	}
	if opt.Detail.Gate.Transitions == 0 {
		t.Error("gating recorded no transitions")
	}
	if opt.Detail.Gate.GatedEnergy >= opt.Detail.Gate.UngatedEnergy {
		t.Error("gated background not below ungated")
	}
	// Energy efficiency ordering of the full stack.
	full := simulate(t, HyVEOpt(), w)
	if full.Report.MTEPSPerWatt() <= base.Report.MTEPSPerWatt() {
		t.Error("HyVE-opt not above base HyVE")
	}
}

// Fig. 16 ordering: acc+HyVE-opt ≥ acc+HyVE > acc+SRAM+DRAM > the
// SRAM-less baselines; and acc+ReRAM above acc+DRAM (ReRAM's low
// energy), per the paper's averages.
func TestFig16EfficiencyOrdering(t *testing.T) {
	w := testWorkload(t, "PR")
	eff := map[string]float64{}
	for _, cfg := range Fig16Configs() {
		eff[cfg.Name] = simulate(t, cfg, w).Report.MTEPSPerWatt()
	}
	order := []string{"acc+HyVE-opt", "acc+HyVE", "acc+SRAM+DRAM", "acc+ReRAM", "acc+DRAM"}
	for i := 0; i+1 < len(order); i++ {
		if eff[order[i]] <= eff[order[i+1]] {
			t.Errorf("expected %s (%.1f) > %s (%.1f)", order[i], eff[order[i]], order[i+1], eff[order[i+1]])
		}
	}
}

// Fig. 17: switching the edge memory from DRAM (SD) to ReRAM (HyVE) must
// slash edge-memory energy, and the §4 optimizations shrink the memory
// share further.
func TestEnergyBreakdownShape(t *testing.T) {
	w := testWorkload(t, "PR")
	sd := simulate(t, SRAMDRAM(), w)
	hyve := simulate(t, HyVE(), w)
	opt := simulate(t, HyVEOpt(), w)
	if hyve.Report.Energy.Get(0 /* EdgeMemory */) >= sd.Report.Energy.Get(0) {
		t.Errorf("HyVE edge-memory energy %v not below SD %v",
			hyve.Report.Energy.Get(0), sd.Report.Energy.Get(0))
	}
	memShare := func(r *Result) float64 {
		return float64(r.Report.Energy.MemoryTotal()) / float64(r.Report.Energy.Total())
	}
	if memShare(opt) >= memShare(sd) {
		t.Errorf("memory share: opt %.2f not below SD %.2f", memShare(opt), memShare(sd))
	}
}

// Fig. 18: HyVE's execution time stays close to SD (ReRAM reads are
// slightly slower, but the PU pipeline bounds the stream).
func TestAbsolutePerformanceClose(t *testing.T) {
	for _, name := range []string{"BFS", "CC", "PR"} {
		w := testWorkload(t, name)
		sd := simulate(t, SRAMDRAM(), w)
		hyve := simulate(t, HyVE(), w)
		ratio := sd.Report.Time.Seconds() / hyve.Report.Time.Seconds()
		if ratio < 0.6 || ratio > 1.05 {
			t.Errorf("%s: SD/HyVE time ratio %.3f outside the paper's shape (slight HyVE degradation)", name, ratio)
		}
	}
}

func TestNoSRAMConfigsSkipLoading(t *testing.T) {
	w := testWorkload(t, "BFS")
	r := simulate(t, AccDRAM(), w)
	if r.Detail.LoadTime != 0 || r.Detail.SrcLoadBytes != 0 || r.Detail.WritebackBytes != 0 {
		t.Errorf("acc+DRAM should have no interval traffic: %+v", r.Detail)
	}
	if r.Report.Energy.Get(2 /* VertexMemoryOnChip */) != 0 {
		t.Error("acc+DRAM charged on-chip vertex energy")
	}
}

func TestIterationOverrideSkipsFunctionalRun(t *testing.T) {
	w := testWorkload(t, "BFS")
	w.Iterations = 3
	r := simulate(t, HyVE(), w)
	if r.Report.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", r.Report.Iterations)
	}
	if want := int64(3) * int64(w.Graph.NumEdges()); r.Report.EdgesProcessed != want {
		t.Errorf("edges = %d, want %d", r.Report.EdgesProcessed, want)
	}
}

func TestSimulateInputValidation(t *testing.T) {
	w := testWorkload(t, "PR")
	if _, err := Simulate(HyVE(), Workload{Program: w.Program}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Simulate(HyVE(), Workload{Graph: w.Graph}); err == nil {
		t.Error("nil program accepted")
	}
	bad := HyVE()
	bad.NumPUs = -1
	if _, err := Simulate(bad, w); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestWorkloadForAttachesWeights(t *testing.T) {
	d := graph.Datasets[0]
	w, err := WorkloadFor(d, algo.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	if !w.Graph.Weighted() {
		t.Error("SSSP workload lacks weights")
	}
	if w.FullVertices != d.FullVertices || w.FullEdges != d.FullEdges {
		t.Error("full-scale sizes not carried")
	}
	// Unweighted programs share the cached graph.
	w2, err := WorkloadFor(d, algo.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if w2.Graph.Weighted() {
		t.Error("PR workload should not be weighted")
	}
}

// Full-scale sizing must control P: a big dataset with a small SRAM
// needs more intervals.
func TestFullScaleSizingControlsP(t *testing.T) {
	w := testWorkload(t, "PR")
	small := simulate(t, HyVE(), w)
	w.FullVertices = 40_000_000
	w.FullEdges = 1_500_000_000
	big := simulate(t, HyVE(), w)
	if big.Detail.P <= small.Detail.P {
		t.Errorf("P did not grow with full-scale vertices: %d vs %d", big.Detail.P, small.Detail.P)
	}
}

// Larger SRAM cuts partitions but pays leakage: with the full-scale
// sizes of a big graph, there must be a capacity sweet spot rather than
// monotone improvement (Table 4's shape).
func TestSRAMSweetSpotExists(t *testing.T) {
	w := testWorkload(t, "PR")
	w.FullVertices = 41_700_000
	w.FullEdges = 1_470_000_000
	var effs []float64
	for _, mb := range []int64{2, 4, 8, 16, 32} {
		cfg := HyVEOpt()
		cfg.SRAMBytes = mb << 20
		effs = append(effs, simulate(t, cfg, w).Report.MTEPSPerWatt())
	}
	last := effs[len(effs)-1]
	best := effs[0]
	for _, e := range effs {
		if e > best {
			best = e
		}
	}
	if last >= best {
		t.Errorf("32MB SRAM should not be the best point: %v", effs)
	}
}

// TestGridExposesPartition pins ChoosePFor to the P a machine actually
// partitions into: callers that need only P (the analytic models of the
// reliability experiment and the conformance harness) ask ChoosePFor
// instead of assembling a machine, so the two must never drift.
func TestGridExposesPartition(t *testing.T) {
	cfgs := []Config{HyVE(), HyVEOpt(), SRAMDRAM(), AccDRAM(), AccReRAM()}
	for _, prog := range []string{"PR", "SSSP"} {
		for _, full := range []int64{0, 1 << 22} {
			w := testWorkload(t, prog)
			w.FullVertices = full
			for _, cfg := range cfgs {
				p, err := ChoosePFor(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if p != m.P() || m.Grid().P() != p {
					t.Errorf("%s %s full=%d: ChoosePFor %d, machine P %d, grid P %d",
						cfg.Name, prog, full, p, m.P(), m.Grid().P())
				}
				if m.Grid().NumEdges() != w.Graph.NumEdges() {
					t.Errorf("%s %s: grid holds %d edges, graph has %d",
						cfg.Name, prog, m.Grid().NumEdges(), w.Graph.NumEdges())
				}
			}
		}
	}
}

func TestDetailTimeComposition(t *testing.T) {
	w := testWorkload(t, "PR")
	r := simulate(t, HyVEOpt(), w)
	iter := r.Detail.IterTime()
	if iter <= 0 {
		t.Fatal("non-positive iteration time")
	}
	total := iter.Times(float64(r.Detail.Iterations))
	// Report time = iterations × iteration time (+ gating penalties,
	// zero under predictive wake).
	if math.Abs(total.Seconds()-r.Report.Time.Seconds()) > 1e-12 {
		t.Errorf("time composition: %v vs %v", total, r.Report.Time)
	}
}

func TestMemKindString(t *testing.T) {
	if MemDRAM.String() != "DRAM" || MemReRAM.String() != "ReRAM" {
		t.Error("MemKind strings wrong")
	}
	if MemKind(9).String() == "" {
		t.Error("unknown MemKind empty")
	}
}

func TestSyncOverheadAccumulates(t *testing.T) {
	w := testWorkload(t, "PR")
	quiet := HyVE()
	quiet.SyncOverhead = 0
	noisy := HyVE()
	noisy.SyncOverhead = 100 * units.Nanosecond
	a := simulate(t, quiet, w)
	b := simulate(t, noisy, w)
	if b.Report.Time <= a.Report.Time {
		t.Error("sync overhead not reflected in time")
	}
}
