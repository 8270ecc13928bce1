package experiments

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/device"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/device/sram"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/units"
)

func chipsAt(density int) (*dram.Chip, *rram.Chip, error) {
	dc := dram.DefaultConfig()
	dc.DensityGb = density
	d, err := dram.New(dc)
	if err != nil {
		return nil, nil, err
	}
	rc := rram.DefaultConfig()
	rc.DensityGb = density
	r, err := rram.New(rc)
	if err != nil {
		return nil, nil, err
	}
	return d, r, nil
}

// runFig9 regenerates Fig. 9: normalized DRAM/ReRAM delay, energy, and
// EDP for 100% sequential reads, 100% sequential writes, and a 50/50
// mix, at 4/8/16 Gb density. Paper shape: DRAM wins delay everywhere;
// ReRAM wins read energy and read EDP; DRAM wins write EDP.
func runFig9(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 9: normalized performance DRAM/ReRAM (values >1 mean ReRAM better)")
	t := newTable("workload", "density", "delay", "energy", "EDP")
	workloads := []struct {
		label     string
		readShare float64
	}{
		{"sequential read (100%)", 1},
		{"sequential write (100%)", 0},
		{"seq read 50% + seq write 50%", 0.5},
	}
	for _, wl := range workloads {
		for _, density := range []int{4, 8, 16} {
			dc, rc, err := chipsAt(density)
			if err != nil {
				return err
			}
			mix := func(m device.Memory) device.Cost {
				return m.Read(true).Times(wl.readShare).Plus(m.Write(true).Times(1 - wl.readShare))
			}
			dcost, rcost := mix(dc), mix(rc)
			t.addf("%s|%dGb|%.3f|%.3f|%.3f",
				wl.label, density,
				float64(dcost.Latency)/float64(rcost.Latency),
				float64(dcost.Energy)/float64(rcost.Energy),
				float64(dcost.EDP())/float64(rcost.EDP()))
		}
	}
	return opt.writeTable(w, "dram-vs-reram", t)
}

// hyveP is the interval count acc+HyVE partitions d's instance g into
// for 8-byte (PageRank) values.
func hyveP(d graph.Dataset, g *graph.Graph) (int, error) {
	return core.ChoosePFor(core.HyVE(), core.Workload{Graph: g, FullVertices: d.FullVertices, Program: algo.NewPageRank()})
}

// runFig10 regenerates Fig. 10: normalized EDP (DRAM/ReRAM) of the
// *global vertex memory* under HyVE's and GraphR's partition counts.
// Paper shape: DRAM wins (ratio < 1) for HyVE's few partitions; ReRAM
// wins (ratio > 1) for GraphR's many partitions.
func runFig10(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 10: normalized vertex-memory EDP DRAM/ReRAM (<1: DRAM better)")
	archs := []string{"GraphR", "HyVE"}
	ds := opt.datasets()
	rows := make([][]string, len(archs)*len(ds))
	err := opt.forEach(len(rows), func(i int) error {
		arch, d := archs[i/len(ds)], ds[i%len(ds)]
		g, err := d.Load()
		if err != nil {
			return err
		}
		var counts analytic.Counts
		if arch == "GraphR" {
			occ, err := partition.ComputeOccupancy(g, 8)
			if err != nil {
				return err
			}
			counts = analytic.GraphRCounts(int64(g.NumVertices), int64(g.NumEdges()), occ.NonEmpty)
		} else {
			p, err := hyveP(d, g)
			if err != nil {
				return err
			}
			counts, err = analytic.HyVECounts(int64(g.NumVertices), int64(g.NumEdges()), p, 8)
			if err != nil {
				return err
			}
		}
		row := []string{arch, d.Name}
		for _, density := range []int{4, 8, 16} {
			dc, rc, err := chipsAt(density)
			if err != nil {
				return err
			}
			local, err := sram.New(2 << 20)
			if err != nil {
				return err
			}
			edp := func(global device.Memory) units.EDP {
				v := analytic.VertexStorage{N: counts, C: analytic.VertexOps(global, local), ValueWords: 2}
				return v.GlobalCost().EDP()
			}
			row = append(row, fmt.Sprintf("%.3f", float64(edp(dc))/float64(edp(rc))))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("architecture", "dataset", "4Gb", "8Gb", "16Gb")
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "vertex-edp", t)
}

// runFig11 regenerates Fig. 11: vertex-storage comparison GraphR/HyVE —
// sequential read/write counts and whole-subsystem delay, energy, EDP
// with a DRAM or ReRAM global memory (4 Gb chips, 2 MB SRAM). Paper
// shape: GraphR reads far more vertices, and HyVE wins delay, energy,
// and EDP despite GraphR's faster register files.
func runFig11(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 11: vertex storage GraphR/HyVE (values >1 mean HyVE better)")
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err := opt.forEach(len(ds), func(i int) error {
		d := ds[i]
		g, err := d.Load()
		if err != nil {
			return err
		}
		occ, err := partition.ComputeOccupancy(g, 8)
		if err != nil {
			return err
		}
		grCounts := analytic.GraphRCounts(int64(g.NumVertices), int64(g.NumEdges()), occ.NonEmpty)
		p, err := hyveP(d, g)
		if err != nil {
			return err
		}
		hvCounts, err := analytic.HyVECounts(int64(g.NumVertices), int64(g.NumEdges()), p, 8)
		if err != nil {
			return err
		}
		sramLocal, err := sram.New(2 << 20)
		if err != nil {
			return err
		}
		regLocal, err := sram.NewRegisterFile(128)
		if err != nil {
			return err
		}
		row := []string{d.Name,
			fmt.Sprintf("%.2f", float64(grCounts.SeqVertexReads)/float64(hvCounts.SeqVertexReads)),
			fmt.Sprintf("%.2f", float64(grCounts.SeqVertexWrites)/float64(hvCounts.SeqVertexWrites)),
		}
		for _, density := range []int{4} {
			dc, rc, err := chipsAt(density)
			if err != nil {
				return err
			}
			for _, global := range []device.Memory{dc, rc} {
				gr := analytic.VertexStorage{N: grCounts, C: analytic.VertexOps(global, regLocal), ValueWords: 2}.Cost()
				hv := analytic.VertexStorage{N: hvCounts, C: analytic.VertexOps(global, sramLocal), ValueWords: 2}.Cost()
				row = append(row,
					fmt.Sprintf("%.2f", float64(gr.Latency)/float64(hv.Latency)),
					fmt.Sprintf("%.2f", float64(gr.Energy)/float64(hv.Energy)),
					fmt.Sprintf("%.2f", float64(gr.EDP())/float64(hv.EDP())))
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("dataset", "reads", "writes", "delay(DRAM)", "energy(DRAM)", "EDP(DRAM)", "delay(ReRAM)", "energy(ReRAM)", "EDP(ReRAM)")
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "vertex-storage", t)
}

// runFig12 regenerates Fig. 12: preprocessing speed as the block count
// grows, normalized to the smallest grid, priced on the CPU model
// (cpusim.PassTime) for HyVE's counting sort. Paper shape: flat up to
// ~32×32 blocks, degrading from 64×64 on, as the P² cursors and their
// open lines outgrow one core's L2 (64² × 72 B = 288 KiB > 256 KiB).
func runFig12(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 12: normalized preprocessing speed vs number of blocks (1.0 = P=4)")
	ps := []int{4, 8, 16, 32, 64, 128, 256, 512}
	if opt.Quick {
		ps = []int{4, 16, 64, 256}
	}
	header := []string{"dataset"}
	for _, p := range ps {
		header = append(header, fmt.Sprintf("%d²", p))
	}
	t := newTable(header...)
	cpu := cpusim.NXgraph()
	for _, d := range opt.datasets() {
		g, err := d.Load()
		if err != nil {
			return err
		}
		e := int64(g.NumEdges())
		row := []string{d.Name}
		var base float64
		for _, p := range ps {
			if p > g.NumVertices {
				row = append(row, "-")
				continue
			}
			speed := float64(e) / cpu.PassTime(countingSortPasses(e, int64(p))...).Seconds()
			if base == 0 {
				base = speed
			}
			row = append(row, fmt.Sprintf("%.2f", speed/base))
		}
		t.add(row...)
	}
	return opt.writeTable(w, "preprocessing-speed", t)
}

// runFig13 regenerates Fig. 13: PR energy efficiency with 1/2/3-bit
// ReRAM cells. Paper shape: SLC wins (MLC sense amplification costs more
// than the density is worth).
func runFig13(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Fig. 13: energy efficiency (MTEPS/W) by ReRAM cell bits, PR")
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err := opt.forEach(len(ds), func(i int) error {
		wl, err := workloadFor(ds[i], "PR")
		if err != nil {
			return err
		}
		row := []string{ds[i].Name}
		for bits := 1; bits <= 3; bits++ {
			cfg := core.HyVEOpt()
			cfg.RRAM.Cell = rram.PaperCell(bits)
			r, err := opt.simulate(cfg, wl)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", r.Report.MTEPSPerWatt()))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("dataset", "1 bit", "2 bits", "3 bits")
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "cell-bits", t)
}
