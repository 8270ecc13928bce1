package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/dynamic"
	"repro/internal/graphr"
	"repro/internal/partition"
)

// runFig19 regenerates Fig. 19: preprocessing time GraphR/HyVE, priced
// on the CPU model (cpusim.PassTime). HyVE partitions into a handful of
// intervals with a two-pass counting layout whose P² cursors stay in
// cache; GraphR buckets every edge into one of its non-empty 8×8 blocks
// through a block directory far larger than the cache — the addressing
// overhead §6.5 identifies (paper mean: 6.73×).
func runFig19(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 19: preprocessing time GraphR/HyVE (priced on the CPU model)")
	t := newTable("dataset", "HyVE P", "HyVE ms", "GraphR ms", "GraphR/HyVE")
	cpu := cpusim.NXgraph()
	var all []float64
	for _, d := range opt.datasets() {
		g, err := d.Load()
		if err != nil {
			return err
		}
		p, err := hyveP(d, g)
		if err != nil {
			return err
		}
		occ, err := partition.ComputeOccupancy(g, 8)
		if err != nil {
			return err
		}
		e := int64(g.NumEdges())
		hyve := cpu.PassTime(countingSortPasses(e, int64(p))...)
		gr := cpu.PassTime(blockBucketingPasses(e, occ.NonEmpty)...)
		ratio := gr.Seconds() / hyve.Seconds()
		all = append(all, ratio)
		t.addf("%s|%d|%.3f|%.3f|%.2f", d.Name, p, hyve.Seconds()*1e3, gr.Seconds()*1e3, ratio)
	}
	if err := opt.writeTable(w, "preprocessing-ratio", t); err != nil {
		return err
	}
	opt.metric("fig19.mean_ratio", geomean(all), "x")
	_, err := fmt.Fprintf(w, "mean: %.2fx (paper: 6.73x)\n", geomean(all))
	return err
}

// runFig20 regenerates Fig. 20: single-thread dynamic-update throughput
// (million edges changed per second) under the 45/45/5/5 request mix,
// HyVE's slack-based layout vs GraphR's block-rewrite layout (paper:
// HyVE up to 46.98 M/s, 8.04× over GraphR). Each store applies the
// stream once and every request is priced on the device models by the
// operations the store performed for it (PriceHyVE, PriceGraphR).
func runFig20(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 20: dynamic update throughput (million edges/s, single thread, priced on the device models)")
	t := newTable("dataset", "HyVE", "GraphR", "ratio")
	perKind := newTable("dataset", "layout", "add-edge ns", "delete-edge ns", "add-vertex ns", "delete-vertex ns")
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
		asg, err := partition.NewHashed(g.NumVertices, 16)
		if err != nil {
			return err
		}
		hs, err := dynamic.NewHyVEStore(g, asg, 0.3)
		if err != nil {
			return err
		}
		hv, err := PriceHyVE(hs, reqs)
		if err != nil {
			return err
		}
		gs, err := dynamic.NewGraphRStore(g, 8)
		if err != nil {
			return err
		}
		gr, err := PriceGraphR(gs, reqs)
		if err != nil {
			return err
		}
		ratio := hv.MillionEdgesPerSecond() / gr.MillionEdgesPerSecond()
		ratios = append(ratios, ratio)
		t.addf("%s|%.2f|%.3f|%.2f", d.Name, hv.MillionEdgesPerSecond(), gr.MillionEdgesPerSecond(), ratio)
		for _, l := range []struct {
			name string
			c    UpdateCost
		}{{"HyVE", hv}, {"GraphR", gr}} {
			row := []string{d.Name, l.name}
			for _, k := range l.c.Kinds {
				row = append(row, fmt.Sprintf("%.1f", k.Time.Nanoseconds()/float64(max(k.Requests, 1))))
			}
			perKind.add(row...)
		}
	}
	if err := opt.writeTable(w, "update-throughput", t); err != nil {
		return err
	}
	fmt.Fprintln(w, "priced ns per request, by kind:")
	if err := opt.writeTable(w, "update-cost", perKind); err != nil {
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
