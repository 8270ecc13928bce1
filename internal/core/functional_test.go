package core

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// The block-parallel functional execution must be bit-identical to the
// sequential schedule at every worker count, for every program — the
// owner-computes argument (§4.2) made testable.
func TestBlockParallelFunctionalBitIdentical(t *testing.T) {
	for _, name := range []string{"PR", "BFS", "CC", "SSSP", "SpMV"} {
		t.Run(name, func(t *testing.T) {
			w := testWorkload(t, name)
			seqCfg := HyVEOpt()
			seqCfg.Parallelism = 1
			want, err := RunFunctional(seqCfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8, 0} {
				cfg := HyVEOpt()
				cfg.Parallelism = workers
				got, err := RunFunctional(cfg, w)
				if err != nil {
					t.Fatalf("Parallelism=%d: %v", workers, err)
				}
				if err := algo.CompareResults("block-parallel vs sequential", got, want); err != nil {
					t.Fatalf("Parallelism=%d: %v", workers, err)
				}
			}
		})
	}
}

// Small, ragged, and SRAM-less machine shapes exercise schedules where
// blocks are tiny or P degenerates to N.
func TestBlockParallelFunctionalOddShapes(t *testing.T) {
	g, err := graph.GenerateRMAT(100, 700, graph.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{DatasetName: "odd", Graph: g, Program: algo.NewCC()}
	for _, base := range []Config{HyVEOpt(), AccDRAM()} {
		for _, pus := range []int{2, 4} {
			seqCfg := base
			seqCfg.NumPUs = pus
			if seqCfg.UseOnChipSRAM {
				seqCfg.SRAMBytes = 1024 // force many intervals per PU
			}
			seqCfg.Parallelism = 1
			want, err := RunFunctional(seqCfg, w)
			if err != nil {
				t.Fatal(err)
			}
			parCfg := seqCfg
			parCfg.Parallelism = 8
			got, err := RunFunctional(parCfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := algo.CompareResults("odd-shape parallel", got, want); err != nil {
				t.Fatalf("%s N=%d: %v", base.Name, pus, err)
			}
		}
	}
}

// Race hammer: many concurrent block-parallel functional runs over a
// shared workload. Run under -race this proves the worker pool's writes
// stay confined to owned destination intervals and per-worker stats.
func TestBlockParallelFunctionalRaceHammer(t *testing.T) {
	w := testWorkload(t, "PR")
	cfg := HyVEOpt()
	cfg.Parallelism = 4
	want, err := RunFunctional(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*algo.Result, 6)
	err = parallel.ForEach(6, 6, func(i int) error {
		r, err := RunFunctional(cfg, w)
		results[i] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := algo.CompareResults("hammer run", r, want); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// One Machine must serve the functional pre-run and the cost run off a
// single partition build, memoizing both.
func TestMachineSharesGrid(t *testing.T) {
	w := testWorkload(t, "PR")
	cfg := HyVEOpt()
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	grid := m.Grid()
	if grid == nil || m.P() <= 0 {
		t.Fatal("machine has no grid")
	}
	fr, err := m.RunFunctional()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := m.SimulateTraced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Grid() != grid {
		t.Error("grid rebuilt between runs")
	}
	fr2, _ := m.RunFunctional()
	sr2, _ := m.SimulateTraced(nil)
	if fr2 != fr || sr2 != sr {
		t.Error("machine runs not memoized")
	}

	// Standalone entry points must agree with the machine's shared runs.
	wantF, err := RunFunctional(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := algo.CompareResults("machine vs standalone functional", fr, wantF); err != nil {
		t.Fatal(err)
	}
	wantS := simulate(t, cfg, w)
	if sr.Report.Time != wantS.Report.Time || sr.Report.Energy.Total() != wantS.Report.Energy.Total() {
		t.Errorf("machine simulate diverges: time %v vs %v, energy %v vs %v",
			sr.Report.Time, wantS.Report.Time, sr.Report.Energy.Total(), wantS.Report.Energy.Total())
	}
}

// TestEntryPointsRejectBadWorkloads: every entry point that assembles a
// machine returns an error, never a panic, for a workload without a
// program or without a non-empty graph.
func TestEntryPointsRejectBadWorkloads(t *testing.T) {
	g, err := graph.GenerateChain(8)
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]Workload{
		"nil program": {DatasetName: "chain", Graph: g},
		"nil graph":   {DatasetName: "chain", Program: algo.NewPageRank()},
		"empty graph": {DatasetName: "chain", Graph: &graph.Graph{}, Program: algo.NewPageRank()},
	}
	entries := map[string]func(Config, Workload) error{
		"Simulate":      func(c Config, w Workload) error { _, err := Simulate(c, w); return err },
		"NewMachine":    func(c Config, w Workload) error { _, err := NewMachine(c, w); return err },
		"RunFunctional": func(c Config, w Workload) error { _, err := RunFunctional(c, w); return err },
	}
	for wname, w := range workloads {
		for ename, entry := range entries {
			t.Run(wname+"/"+ename, func(t *testing.T) {
				if err := entry(HyVEOpt(), w); err == nil {
					t.Error("accepted")
				}
			})
		}
	}
}
