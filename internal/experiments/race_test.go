package experiments

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// quickOpt is the cheap configuration the concurrency tests hammer with:
// small datasets, and every runner fanning its points across 4 workers.
var quickOpt = Options{Quick: true, Parallel: 4}

// TestConcurrentRunnersRaceClean runs several experiments at once, each
// itself parallel, twice over — the workload cache, the table writer,
// and every simulator path get exercised from many goroutines. The test
// asserts nothing numeric; its job is to give `go test -race` surface.
func TestConcurrentRunnersRaceClean(t *testing.T) {
	ids := []string{"table1", "table4", "fig14", "fig16", "fig18", "fig21", "ablation-nvm", "ablation-model"}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ids))
	for rep := 0; rep < 2; rep++ {
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e Experiment) {
				defer wg.Done()
				if err := e.Run(io.Discard, quickOpt); err != nil {
					errs <- err
				}
			}(e)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentWorkloadFor hammers the singleflight cache: many
// goroutines asking for the same (dataset, program) must all see the
// one memoized workload, and distinct scales of the same dataset must
// not collide.
func TestConcurrentWorkloadFor(t *testing.T) {
	d := graph.Datasets[0]
	scaled := d
	scaled.Scale *= 2
	var wg sync.WaitGroup
	wls := make([]core.Workload, 16)
	var scaledIters int
	for i := 0; i < len(wls); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl, err := workloadFor(d, "PR")
			if err != nil {
				t.Error(err)
				return
			}
			wls[i] = wl
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(wls); i++ {
		if wls[i].Graph != wls[0].Graph {
			t.Fatalf("goroutine %d got a different graph pointer — cache not singleflight", i)
		}
		if wls[i].Iterations != wls[0].Iterations {
			t.Fatalf("goroutine %d got different iteration count %d vs %d", i, wls[i].Iterations, wls[0].Iterations)
		}
	}
	swl, err := workloadFor(scaled, "PR")
	if err != nil {
		t.Fatal(err)
	}
	scaledIters = swl.Iterations
	if swl.Graph == wls[0].Graph {
		t.Fatal("scaled dataset shared the full-scale cache entry — key must include scale")
	}
	_ = scaledIters
}

// TestConcurrentSimulateSharedWorkload runs many simulations of the one
// cached workload at once: the workload's graph and program are shared
// read-only, so results must agree and -race must stay quiet.
func TestConcurrentSimulateSharedWorkload(t *testing.T) {
	wl, err := workloadFor(graph.Datasets[0], "PR")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	effs := make([]float64, 12)
	for i := range effs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := core.HyVE()
			if i%2 == 1 {
				cfg = core.HyVEOpt()
			}
			r, err := core.Simulate(cfg, wl)
			if err != nil {
				t.Error(err)
				return
			}
			effs[i] = r.Report.MTEPSPerWatt()
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(effs); i += 2 {
		if effs[i] != effs[0] {
			t.Errorf("simulation %d diverged: %v vs %v — shared workload mutated?", i, effs[i], effs[0])
		}
	}
}

// TestParallelOutputGolden is the determinism contract end to end: a
// serial run and an 8-worker run must emit byte-identical artifacts,
// the priced Figs. 12, 19 and 20 included.
func TestParallelOutputGolden(t *testing.T) {
	ids := []string{"table1", "table4", "fig12", "fig14", "fig16", "fig19", "fig20", "fig21", "ablation-nvm", "reliability"}
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var serial, par bytes.Buffer
		if err := e.Run(&serial, Options{Quick: true, Parallel: 1}); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		if err := e.Run(&par, Options{Quick: true, Parallel: 8}); err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if !bytes.Equal(serial.Bytes(), par.Bytes()) {
			t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial.String(), par.String())
		}
	}
}
