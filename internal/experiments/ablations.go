package experiments

import (
	"fmt"
	"io"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/device/dram"
	"repro/internal/device/nvmalt"
	"repro/internal/device/rram"
	"repro/internal/device/sram"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/units"
)

// This file holds the ablations DESIGN.md calls out beyond the paper's
// own artifacts: quantifications of design decisions the paper makes by
// argument (interleaving policy, §3.1), by citation (PCM vs ReRAM,
// §2.3), or implicitly (BPG idle timeout, router reroute cost).

// runAblationInterleave settles §3.1's interleaving argument with the
// discrete-event channel model: bank vs subbank interleaving at equal
// port provisioning — same bandwidth, very different awake-bank time.
func runAblationInterleave(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: edge-memory interleaving policy (§3.1)")
	cfg := mem.HyVEEdgeChannel(64, 8, 1983*units.Picosecond, 1_000_000/64)
	const lines = 200_000
	t := newTable("policy", "bandwidth (GB/s)", "banks touched", "awake bank-time")
	var results []mem.StreamResult
	for _, policy := range []mem.InterleavePolicy{mem.BankInterleave, mem.SubbankInterleave} {
		r, err := mem.SimulateStream(cfg, policy, lines)
		if err != nil {
			return err
		}
		results = append(results, r)
		t.addf("%v|%.2f|%d|%v", policy, r.Bandwidth()*64, r.BanksTouched, r.AwakeBankTime())
	}
	if err := opt.writeTable(w, "interleave", t); err != nil {
		return err
	}
	bw := results[1].Bandwidth() / results[0].Bandwidth()
	awake := float64(results[0].AwakeBankTime()) / float64(results[1].AwakeBankTime())
	opt.metric("ablation-interleave.bandwidth_kept", 100*bw, "%")
	opt.metric("ablation-interleave.awake_time_cut", awake, "x")
	_, err := fmt.Fprintf(w, "subbank interleaving keeps %.1f%% of the bandwidth while cutting awake bank-time %.1fx\n",
		100*bw, awake)
	return err
}

// runAblationNVM swaps the edge memory among the non-volatile candidates
// of §2.3 (ReRAM, PCM, STT-MRAM) plus the DRAM reference, under the full
// HyVE-opt pipeline.
func runAblationNVM(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: edge-memory technology (§2.3), PR, HyVE-opt pipeline")
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err := opt.forEach(len(ds), func(i int) error {
		d := ds[i]
		wl, err := workloadFor(d, "PR")
		if err != nil {
			return err
		}
		row := []string{d.Name}
		// ReRAM: the paper's design.
		base, err := opt.simulate(core.HyVEOpt(), wl)
		if err != nil {
			return err
		}
		row = append(row, fmt.Sprintf("%.0f", base.Report.MTEPSPerWatt()))
		// PCM and STT-MRAM keep the non-volatile gating benefit.
		for _, kind := range []nvmalt.Kind{nvmalt.PCM, nvmalt.STTMRAM} {
			chip, err := nvmalt.New(nvmalt.Config{Kind: kind, DensityGb: 4})
			if err != nil {
				return err
			}
			cfg := core.HyVEOpt()
			cfg.Name = "acc+HyVE-opt/" + kind.String()
			cfg.CustomEdgeDevice = chip
			r, err := opt.simulate(cfg, wl)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", r.Report.MTEPSPerWatt()))
		}
		// DRAM reference: volatile, so sharing only.
		sd := core.SRAMDRAM()
		sd.DataSharing = true
		r, err := opt.simulate(sd, wl)
		if err != nil {
			return err
		}
		row = append(row, fmt.Sprintf("%.0f", r.Report.MTEPSPerWatt()))
		rows[i] = row
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("dataset", "ReRAM", "PCM", "STT-MRAM", "DRAM (no gating)")
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "edge-memory-technology", t)
}

// runAblationGateTimeout sweeps the BPG idle timeout: too short and
// transition overheads bite, too long and lingering banks leak.
func runAblationGateTimeout(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: bank power-gate idle timeout, PR")
	timeouts := []units.Time{
		100 * units.Nanosecond,
		units.Microsecond,
		10 * units.Microsecond,
		100 * units.Microsecond,
		units.Millisecond,
	}
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err := opt.forEach(len(ds), func(i int) error {
		wl, err := workloadFor(ds[i], "PR")
		if err != nil {
			return err
		}
		row := []string{ds[i].Name}
		for _, to := range timeouts {
			cfg := core.HyVEOpt()
			cfg.Gate.IdleTimeout = to
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
	header := []string{"dataset"}
	for _, to := range timeouts {
		header = append(header, to.String())
	}
	t := newTable(header...)
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "gate-timeout", t)
}

// runAblationRouter sweeps the §4.2 router reroute cost (the paper
// quotes 5–10 SRAM cycles) to show data sharing's win is insensitive to
// it.
func runAblationRouter(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: router reroute cost (§4.2), data-sharing improvement on PR")
	cycles := []int{0, 5, 10, 50, 200}
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err := opt.forEach(len(ds), func(i int) error {
		wl, err := workloadFor(ds[i], "PR")
		if err != nil {
			return err
		}
		base, err := opt.simulate(core.HyVE(), wl)
		if err != nil {
			return err
		}
		row := []string{ds[i].Name}
		for _, c := range cycles {
			cfg := core.HyVE()
			cfg.DataSharing = true
			cfg.RerouteCycles = c
			r, err := opt.simulate(cfg, wl)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2fx", r.Report.MTEPSPerWatt()/base.Report.MTEPSPerWatt()))
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return err
	}
	header := []string{"dataset"}
	for _, c := range cycles {
		header = append(header, fmt.Sprintf("%d cyc", c))
	}
	t := newTable(header...)
	for _, r := range rows {
		t.add(r...)
	}
	return opt.writeTable(w, "reroute-cost", t)
}

// runAblationModel contrasts the §2.1 execution models on the device
// models: vertex-centric BFS traverses far fewer edges (frontier
// optimization) but scatters fine-grained random updates across the
// whole off-chip vertex memory, while edge-centric HyVE streams every
// edge sequentially and confines randomness to on-chip intervals — the
// locality argument behind X-Stream and behind HyVE's memory binding.
func runAblationModel(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: edge-centric vs vertex-centric (§2.1), BFS")
	rchip, err := rram.New(rram.DefaultConfig())
	if err != nil {
		return err
	}
	dchip, err := dram.New(dram.DefaultConfig())
	if err != nil {
		return err
	}
	schip, err := sram.New(2 << 20)
	if err != nil {
		return err
	}
	// The chips are shared across points: device cost lookups are pure
	// reads of the calibrated operating points.
	ds := opt.datasets()
	rows := make([][]string, len(ds))
	err = opt.forEach(len(ds), func(i int) error {
		d := ds[i]
		g, err := d.Load()
		if err != nil {
			return err
		}
		// The edge-centric counts are the graph's memoized BFS summary,
		// which Table 4's BFS points run first in a figures round.
		prog := algo.NewBFS(0)
		ec, err := core.FunctionalSummary(g, prog)
		if err != nil {
			return err
		}
		vc, err := algo.RunVertexCentric(prog, g)
		if err != nil {
			return err
		}

		// Edge-side energy: ec streams sequentially; vc jumps into CSR
		// per frontier vertex (one random fill each) then runs.
		edgesPerLine := float64(rchip.LineBytes()) / 8
		ecEdge := rchip.Read(true).Energy.Times(float64(ec.EdgesProcessed) / edgesPerLine)
		// One random fill per scattering vertex, then its CSR run streams.
		vcEdge := rchip.Read(false).Energy.Times(float64(vc.VerticesProcessed)) +
			rchip.Read(true).Energy.Times(float64(vc.EdgesProcessed)/edgesPerLine)

		// Vertex-side energy: ec uses on-chip SRAM per edge (interval-
		// confined); vc updates arbitrary vertices off-chip per edge.
		ecVtx := (schip.Read(false).Energy.Times(2) + schip.Write(false).Energy).
			Times(float64(ec.EdgesProcessed))
		vcVtx := (dchip.Read(false).Energy + dchip.Write(false).Energy).
			Times(float64(vc.EdgesProcessed))

		ecTotal := ecEdge + ecVtx
		vcTotal := vcEdge + vcVtx
		rows[i] = []string{
			d.Name,
			fmt.Sprintf("%.2f", float64(ec.EdgesProcessed)/float64(vc.EdgesProcessed)),
			fmt.Sprintf("%v", vcVtx), fmt.Sprintf("%v", ecVtx),
			fmt.Sprintf("%.2f", float64(ecTotal)/float64(vcTotal))}
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("dataset", "edges ec/vc", "vc vertex energy", "ec vertex energy", "total ec/vc energy")
	for _, r := range rows {
		t.add(r...)
	}
	if err := opt.writeTable(w, "execution-model", t); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "(total ec/vc < 1: edge-centric wins despite traversing more edges)")
	return err
}

// runAblationPrecision runs PageRank entirely through the quantized
// bit-sliced crossbar emulation at several value widths: the fidelity
// cost of GraphR's analog compute, which its energy model leaves
// implicit (§6.4 notes only that "the precision of ReRAM cells is
// limited").
func runAblationPrecision(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: crossbar compute precision (max relative PR error vs float64)")
	widths := []int{8, 12, 16}
	iters := 10
	datasets := opt.datasets()
	if opt.Quick {
		// One dataset and a shorter run: the quick table the golden
		// hashes pin.
		datasets = datasets[:1]
		iters = 5
	}
	// One point per (dataset, width): every table cell is an independent
	// emulation run, so the cells fan out rather than only the rows.
	rows := make([][]string, len(datasets)*len(widths))
	err := opt.forEach(len(rows), func(i int) error {
		d, bits := datasets[i/len(widths)], widths[i%len(widths)]
		g, err := d.Load()
		if err != nil {
			return err
		}
		q, err := graphr.NewQuantizer(bits, 4, 1)
		if err != nil {
			return err
		}
		_, maxRel, err := graphr.PageRankCrossbar(g, q, 0.85, iters)
		if err != nil {
			return err
		}
		rows[i] = []string{fmt.Sprintf("%.4f", maxRel)}
		return nil
	})
	if err != nil {
		return err
	}
	header := []string{"dataset"}
	for _, b := range widths {
		header = append(header, fmt.Sprintf("%d-bit", b))
	}
	t := newTable(header...)
	for di, d := range datasets {
		row := []string{d.Name}
		for wi := range widths {
			row = append(row, rows[di*len(widths)+wi]...)
		}
		t.add(row...)
	}
	if err := opt.writeTable(w, "precision", t); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "(GraphR's 4×4-bit slicing of 16-bit values keeps PR within a few percent)")
	return err
}

// runAblationTopology runs the HyVE-vs-conventional comparison on
// structurally different synthetic topologies — R-MAT (the paper's
// natural-graph stand-in), a Watts–Strogatz small world (high locality,
// no skew), a Barabási–Albert hub graph (extreme skew), and a uniform
// random graph — to show the hybrid hierarchy's win does not depend on
// one degree distribution.
func runAblationTopology(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Ablation: topology sensitivity (PR, MTEPS/W and HyVE-opt/SD ratio)")
	const v, e = 100_000, 800_000
	type gen struct {
		name string
		make func() (*graph.Graph, error)
	}
	gens := []gen{
		{"rmat", func() (*graph.Graph, error) { return graph.GenerateRMAT(v, e, graph.DefaultRMAT, 5) }},
		{"small-world", func() (*graph.Graph, error) { return graph.GenerateSmallWorld(v, e/v, 0.1, 5) }},
		{"pref-attach", func() (*graph.Graph, error) { return graph.GeneratePreferentialAttachment(v, e/v, 5) }},
		{"uniform", func() (*graph.Graph, error) { return graph.GenerateUniform(v, e, 5) }},
	}
	if opt.Quick {
		gens = gens[:2]
	}
	rows := make([][]string, len(gens))
	err := opt.forEach(len(gens), func(i int) error {
		ge := gens[i]
		g, err := ge.make()
		if err != nil {
			return err
		}
		wl := core.Workload{DatasetName: ge.name, Graph: g, Program: algo.NewPageRank()}
		sd, err := opt.simulate(core.SRAMDRAM(), wl)
		if err != nil {
			return err
		}
		opt2, err := opt.simulate(core.HyVEOpt(), wl)
		if err != nil {
			return err
		}
		occ, err := partition.ComputeOccupancy(g, 8)
		if err != nil {
			return err
		}
		rows[i] = []string{
			ge.name,
			fmt.Sprintf("%.3f", graph.ComputeStats(g).GiniIn),
			fmt.Sprintf("%.2f", occ.AvgEdgesPerBlk),
			fmt.Sprintf("%.0f", sd.Report.MTEPSPerWatt()),
			fmt.Sprintf("%.0f", opt2.Report.MTEPSPerWatt()),
			fmt.Sprintf("%.2fx", opt2.Report.MTEPSPerWatt()/sd.Report.MTEPSPerWatt())}
		return nil
	})
	if err != nil {
		return err
	}
	t := newTable("topology", "gini(in)", "Navg(8×8)", "SD", "HyVE-opt", "ratio")
	for _, r := range rows {
		t.add(r...)
	}
	if err := opt.writeTable(w, "topology", t); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "(the hybrid hierarchy wins on every topology; degree skew moves the margin, not the sign)")
	return err
}
