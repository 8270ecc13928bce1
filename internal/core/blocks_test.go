package core

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/partition"
)

// TestDatasetSiblingSharesBlockOffsets: a dataset instance and its
// weighted sibling alias one edge array, so machines on either price
// from one memoized offsets entry per P: PR and SpMV (8-byte values)
// meet at the SRAM hierarchies' P, BFS and SSSP (4-byte values) at
// theirs, and all four at dram's P = N.
func TestDatasetSiblingSharesBlockOffsets(t *testing.T) {
	d := graph.Datasets[0]
	offsets := func(cfg Config, p algo.Program) *int64 {
		t.Helper()
		w, err := WorkloadFor(d, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return &m.s.offsets[0]
	}
	for _, pair := range [][2]algo.Program{
		{algo.NewPageRank(), algo.NewSpMV()},
		{algo.NewBFS(0), algo.NewSSSP(0)},
	} {
		for _, cfg := range []Config{HyVE(), HyVEOpt(), SRAMDRAM(), AccDRAM()} {
			if offsets(cfg, pair[0]) != offsets(cfg, pair[1]) {
				t.Errorf("%s on %s: %s (instance) and %s (weighted sibling) hold separate offsets",
					cfg.Name, d.Name, pair[0].Name(), pair[1].Name())
			}
		}
	}
	if offsets(AccDRAM(), algo.NewPageRank()) != offsets(AccReRAM(), algo.NewSSSP(0)) {
		t.Errorf("dram and reram, both at P = N, hold separate offsets on %s", d.Name)
	}
}

// TestNewMachineRefusesUnaddressableGrid: a machine that assembles can
// always build its grid later, so NewMachine refuses what the grid
// build refuses — here a P whose P² blocks overflow an int32 block id,
// which a tiny SRAM over a large vertex set selects.
func TestNewMachineRefusesUnaddressableGrid(t *testing.T) {
	cfg := HyVEOpt()
	cfg.SRAMBytes = 16 // one 8-byte value per section: P = |V|
	w := Workload{DatasetName: "wide", Graph: &graph.Graph{NumVertices: 50_000}, Program: algo.NewPageRank()}
	if p, err := ChoosePFor(cfg, w); err != nil || int64(p)*int64(p) <= math.MaxInt32 {
		t.Fatalf("ChoosePFor = %d, %v; want a P with P² > MaxInt32", p, err)
	}
	if _, err := NewMachine(cfg, w); err == nil || !strings.Contains(err.Error(), "more blocks than addressable") {
		t.Fatalf("NewMachine = %v, want the grid build's refusal of more blocks than an int32 addresses", err)
	}
}

// TestWarmMachineCopiesNoEdges: once a graph's block offsets and
// functional summary are memoized, assembling a machine and running the
// cost model allocates a small fraction of one copy of the edge list. A
// partitioned grid would take 12 bytes an edge: the edge and its block
// id.
func TestWarmMachineCopiesNoEdges(t *testing.T) {
	g, err := graph.GenerateRMAT(1<<16, 500_000, graph.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{DatasetName: "alloc", Graph: g, Program: algo.NewPageRank()}
	point := func() {
		m, err := NewMachine(HyVEOpt(), w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SimulateTraced(nil); err != nil {
			t.Fatal(err)
		}
	}
	point() // warm the memos
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	point()
	runtime.ReadMemStats(&after)
	edgeCopy := uint64(g.NumEdges()) * graph.EdgeBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > edgeCopy/8 {
		t.Fatalf("warm NewMachine + SimulateTraced allocated %d bytes, want ≤ %d (1/8 of the %d-byte edge list)",
			got, edgeCopy/8, edgeCopy)
	}
}

// TestMachineBuildsGridOnce: Grid, RunFunctional and SimulateTraced
// racing on one machine see a single grid, built by whichever edge
// walk comes first; the cost run builds none.
func TestMachineBuildsGridOnce(t *testing.T) {
	w := testWorkload(t, "PR")
	costOnly, err := NewMachine(HyVEOpt(), w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := costOnly.SimulateTraced(nil); err != nil {
		t.Fatal(err)
	}
	if costOnly.s.grid != nil {
		t.Fatal("the cost run built the grid")
	}
	m, err := NewMachine(HyVEOpt(), w)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	grids := make([]*partition.Grid, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if _, err := m.RunFunctional(); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := m.SimulateTraced(nil); err != nil {
					t.Error(err)
				}
			}
			grids[i] = m.Grid()
		}(i)
	}
	wg.Wait()
	for i, g := range grids {
		if g == nil || g != grids[0] {
			t.Fatalf("goroutine %d saw grid %p, goroutine 0 saw %p", i, g, grids[0])
		}
	}
}
