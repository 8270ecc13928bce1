package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/partition"
)

// runFig19 regenerates Fig. 19: measured preprocessing time ratio
// GraphR/HyVE. HyVE partitions into a handful of intervals with a
// two-pass counting layout; GraphR must bucket every edge into one of
// ~|V|²/64 sparse 8×8 blocks through a block directory — the addressing
// overhead §6.5 identifies (paper mean: 6.73×). Marked Measured in the
// registry: its points time real executions and always run serially.
func runFig19(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 19: preprocessing time GraphR/HyVE (measured)")
	t := newTable("dataset", "HyVE P", "GraphR/HyVE")
	var all []float64
	reps := 3
	if opt.Quick {
		reps = 2
	}
	for _, d := range opt.datasets() {
		g, err := d.Load()
		if err != nil {
			return err
		}
		p, err := partition.ChooseP(d.FullVertices, 2<<20, 8, 8)
		if err != nil {
			return err
		}
		if p > g.NumVertices {
			p = g.NumVertices / 8 * 8
		}
		asg, err := partition.NewHashed(g.NumVertices, p)
		if err != nil {
			return err
		}
		hyveTime, err := measureBest(reps, func() error {
			_, err := partition.Build(g, asg)
			return err
		})
		if err != nil {
			return err
		}
		graphrTime, err := measureBest(reps, func() error {
			return buildSparseBlocks(g, 8)
		})
		if err != nil {
			return err
		}
		ratio := graphrTime.Seconds() / hyveTime.Seconds()
		all = append(all, ratio)
		t.addf("%s|%d|%.2f", d.Name, p, ratio)
	}
	if err := opt.writeTable(w, "preprocessing-ratio", t); err != nil {
		return err
	}
	opt.metric("fig19.mean_ratio", geomean(all), "x")
	_, err := fmt.Fprintf(w, "mean: %.2fx (paper: 6.73x)\n", geomean(all))
	return err
}

// buildSparseBlocks performs GraphR's preprocessing: scatter every edge
// into its 8×8 block through a sparse block directory.
func buildSparseBlocks(g *graph.Graph, dim int) error {
	blocks := make(map[uint64][]graph.Edge)
	for _, e := range g.Edges {
		k := uint64(e.Src)/uint64(dim)<<32 | uint64(e.Dst)/uint64(dim)
		blocks[k] = append(blocks[k], e)
	}
	if len(blocks) == 0 && g.NumEdges() > 0 {
		return fmt.Errorf("experiments: sparse build produced no blocks")
	}
	return nil
}

// runFig20 regenerates Fig. 20: single-thread dynamic-update throughput
// (million edges changed per second) under the 45/45/5/5 request mix,
// HyVE's slack-based layout vs GraphR's block-rewrite layout (paper:
// HyVE up to 46.98 M/s, 8.04× over GraphR). Marked Measured in the
// registry: its points time real executions and always run serially.
func runFig20(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 20: dynamic update throughput (million edges/s, single thread)")
	t := newTable("dataset", "HyVE", "GraphR", "ratio")
	n := 200_000
	if opt.Quick {
		n = 20_000
	}
	var ratios []float64
	for _, d := range opt.datasets() {
		g, err := d.Load()
		if err != nil {
			return err
		}
		reqs, err := dynamic.GenerateRequests(g, n, dynamic.PaperMix, d.Seed^0xD15C)
		if err != nil {
			return err
		}
		// Only the replay is timed. Like testing.B before each run, collect
		// before each store build: the previous rep's store is garbage by
		// then, and a collection while the next store grows beside it
		// would double the heap goal.
		measure := func(mk func() (dynamic.Store, error)) (float64, error) {
			var rates []float64
			for i := 0; i < 3; i++ {
				runtime.GC()
				s, err := mk()
				if err != nil {
					return 0, err
				}
				tp, err := dynamic.Replay(s, reqs)
				if err != nil {
					return 0, err
				}
				rates = append(rates, tp.MillionEdgesPerSecond())
			}
			return median(rates), nil
		}
		hv, err := measure(func() (dynamic.Store, error) {
			asg, err := partition.NewHashed(g.NumVertices, 16)
			if err != nil {
				return nil, err
			}
			return dynamic.NewHyVEStore(g, asg, 0.3)
		})
		if err != nil {
			return err
		}
		gr, err := measure(func() (dynamic.Store, error) {
			return dynamic.NewGraphRStore(g, 8)
		})
		if err != nil {
			return err
		}
		ratios = append(ratios, hv/gr)
		t.addf("%s|%.2f|%.2f|%.2f", d.Name, hv, gr, hv/gr)
	}
	if err := opt.writeTable(w, "update-throughput", t); err != nil {
		return err
	}
	opt.metric("fig20.mean_ratio", geomean(ratios), "x")
	_, err := fmt.Fprintf(w, "mean HyVE/GraphR: %.2fx (paper: 8.04x)\n", geomean(ratios))
	return err
}

// runFig21 regenerates Fig. 21: GraphR/HyVE ratios of delay, energy, and
// EDP across all five algorithms (paper means: 5.12× delay, 2.83×
// energy, 17.63× EDP).
func runFig21(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 21: normalized performance GraphR/HyVE (>1: HyVE better)")
	algos := []string{"BFS", "CC", "PR", "SSSP", "SpMV"}
	if opt.Quick {
		algos = []string{"PR", "BFS"}
	}
	ds := opt.datasets()
	type fig21Point struct{ dr, er, xr float64 }
	points := make([]fig21Point, len(algos)*len(ds))
	err := opt.forEach(len(points), func(i int) error {
		wl, err := workloadFor(ds[i%len(ds)], algos[i/len(ds)])
		if err != nil {
			return err
		}
		gr, err := graphr.Simulate(graphr.Default(), wl)
		if err != nil {
			return err
		}
		hv, err := opt.simulate(core.HyVE(), wl)
		if err != nil {
			return err
		}
		points[i] = fig21Point{
			dr: gr.Report.Time.Seconds() / hv.Report.Time.Seconds(),
			er: gr.Report.Energy.Total().Joules() / hv.Report.Energy.Total().Joules(),
			xr: float64(gr.Report.EDP()) / float64(hv.Report.EDP()),
		}
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("algo", "dataset", "delay", "energy", "EDP")
	var dAll, eAll, edpAll []float64
	for ai, a := range algos {
		for di, d := range ds {
			p := points[ai*len(ds)+di]
			dAll = append(dAll, p.dr)
			eAll = append(eAll, p.er)
			edpAll = append(edpAll, p.xr)
			t.addf("%s|%s|%.2f|%.2f|%.2f", a, d.Name, p.dr, p.er, p.xr)
		}
	}
	if err := opt.writeTable(w, "graphr-vs-hyve", t); err != nil {
		return err
	}
	opt.metric("fig21.mean_delay_ratio", geomean(dAll), "x")
	opt.metric("fig21.mean_energy_ratio", geomean(eAll), "x")
	opt.metric("fig21.mean_edp_ratio", geomean(edpAll), "x")
	_, err = fmt.Fprintf(w, "means: delay %.2fx (paper 5.12x), energy %.2fx (paper 2.83x), EDP %.2fx (paper 17.63x)\n",
		geomean(dAll), geomean(eAll), geomean(edpAll))
	return err
}
