// Command hyve-sim runs architecture simulations: one dataset/algorithm/
// configuration point, or a comma-separated sweep over any of the three,
// and prints the timing/energy report for each point.
//
// Usage:
//
//	hyve-sim -dataset YT -algo PR -config hyve-opt
//	hyve-sim -dataset TW -algo BFS -config sd -sram 4
//	hyve-sim -dataset YT,WK,LJ -algo PR,BFS -config hyve-opt,sd
//	hyve-sim -dataset YT -algo PR -config hyve-opt -json
//	hyve-sim -dataset YT -algo PR -config hyve-opt -result
//
// -result emits each point as its canonical hyve/result/v1 document —
// the exact bytes the result cache stores and hyve-serve returns for
// the same point, so `hyve-sim -result` output can be compared
// byte-for-byte against a served response (the serve-smoke CI gate does
// exactly that). It covers the five core configurations; the analytic
// graphr/cpu baselines have no result document.
//
// A sweep (more than one point) fans the points across a worker pool
// (-parallel, default GOMAXPROCS), buffers each point's report, and
// emits them in sweep order — dataset-major, then algorithm, then
// configuration — so the output is byte-identical at any worker count.
// A single point prints exactly what it always did, no headers added.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/point"
)

func main() {
	var (
		dataset = flag.String("dataset", "YT", "dataset (comma-separated to sweep): YT, WK, AS, LJ, TW")
		algon   = flag.String("algo", "PR", "algorithm (comma-separated to sweep): PR, BFS, CC, SSSP, SpMV")
		config  = flag.String("config", "hyve-opt", "configuration (comma-separated to sweep): "+strings.Join(configNames(), ", "))
		sramMB  = flag.Int64("sram", 2, "per-PU on-chip vertex memory in MB (accelerator configs; 0 = configuration default)")
		verbose = flag.Bool("v", false, "print per-phase detail")
		par     = flag.Int("parallel", 0, "worker count for sweep points (0 = GOMAXPROCS, 1 = serial)")
		jsonOut = flag.Bool("json", false, "emit one canonical JSON artifact document per point instead of text")
		result  = flag.Bool("result", false, "emit each point's canonical hyve/result/v1 document (the result-cache and hyve-serve wire format)")
		prepDir = flag.String("prep-dir", "", "load datasets from hyve-prep v2 containers in this directory when present (bit-identical to generation; missing datasets are generated)")
	)
	flag.Parse()

	graph.SetPreparedDir(*prepDir)

	if *jsonOut && *result {
		fmt.Fprintln(os.Stderr, "hyve-sim: -json and -result are mutually exclusive")
		os.Exit(1)
	}
	mode := modeText
	switch {
	case *jsonOut:
		mode = modeArtifact
	case *result:
		mode = modeResult
	}
	sw, err := parseSweep(*dataset, *algon, *config, *sramMB)
	if err == nil {
		err = runSweep(os.Stdout, os.Stderr, sw, *verbose, mode, *par)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// outputMode selects what runOne writes per point: the human report,
// the artifact document (-json), or the canonical result document
// (-result).
type outputMode int

const (
	modeText outputMode = iota
	modeArtifact
	modeResult
)

// baselines are the analytic configurations only hyve-sim runs: they
// have no core.Config and no canonical result document.
var baselines = []string{"graphr", "cpu", "cpu-opt"}

// configNames lists every configuration hyve-sim accepts.
func configNames() []string { return append(point.Names(), baselines...) }

// parseSweep turns the comma-separated flag values into a sweep,
// rejecting an empty axis, an out-of-range SRAM override and unknown
// configurations before any point runs. Unknown datasets and algorithms
// surface per point, naming the point that failed.
func parseSweep(datasets, algos, configs string, sramMB int64) (point.Sweep, error) {
	sw := point.Sweep{
		Datasets: point.SplitList(datasets),
		Algos:    point.SplitList(algos),
		Configs:  point.SplitList(configs),
		SRAMMB:   sramMB,
	}
	if sw.Len() == 0 {
		return sw, fmt.Errorf("hyve-sim: -dataset, -algo, and -config must each name at least one value")
	}
	if err := point.CheckSRAM(sramMB); err != nil {
		return sw, fmt.Errorf("hyve-sim: -sram: %w", err)
	}
	names := configNames()
	for _, c := range sw.Configs {
		if !slices.Contains(names, c) {
			return sw, fmt.Errorf("hyve-sim: unknown config %q (want %s)", c, strings.Join(names, ", "))
		}
	}
	return sw, nil
}

// runSweep runs every point of the sweep. One point streams straight to
// w; a sweep computes every point into an index-addressed buffer (fanned
// across the worker pool) and emits them in order, closing with an
// aggregate-vs-wall-clock speedup line on progress (stderr in the
// binary) so w stays pipeable — in particular, -json output on w is a
// clean concatenation of JSON documents.
func runSweep(w, progress io.Writer, sw point.Sweep, verbose bool, mode outputMode, par int) error {
	n := sw.Len()
	if n == 1 {
		spec, _ := sw.At(0)
		return runOne(w, spec, verbose, mode)
	}

	start := time.Now()
	bufs := make([]bytes.Buffer, n)
	elapsed := make([]time.Duration, n)
	workers := parallel.Workers(par)
	if par < 0 {
		workers = 1
	}
	err := parallel.ForEach(workers, n, func(i int) error {
		spec, _ := sw.At(i)
		t0 := time.Now()
		if err := runOne(&bufs[i], spec, verbose, mode); err != nil {
			return fmt.Errorf("%s/%s/%s: %w", spec.Dataset, spec.Algo, spec.Config, err)
		}
		elapsed[i] = time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}

	var aggregate time.Duration
	for i := 0; i < n; i++ {
		if mode == modeText {
			if i > 0 {
				fmt.Fprintln(w)
			}
			spec, _ := sw.At(i)
			fmt.Fprintf(w, "--- %s %s %s ---\n", spec.Dataset, spec.Algo, spec.Config)
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		aggregate += elapsed[i]
	}
	wall := time.Since(start)
	_, err = fmt.Fprintf(progress, "\n%d points: wall clock %v for %v of simulation time, %d workers (%.2fx speedup)\n",
		n, wall.Round(time.Millisecond), aggregate.Round(time.Millisecond), workers,
		aggregate.Seconds()/wall.Seconds())
	return err
}

// runOne runs one point. Core configurations run through point.Run
// with the cache off, so every mode renders from the canonical result
// document hyve-serve produces for the same point.
func runOne(w io.Writer, spec point.Spec, verbose bool, mode outputMode) error {
	d, err := graph.DatasetByName(spec.Dataset)
	if err != nil {
		return err
	}
	wl, err := spec.Workload()
	if err != nil {
		return err
	}
	if mode == modeText {
		fmt.Fprintf(w, "dataset %s (%s): %d vertices, %d edges (full scale %d/%d, 1/%d instance)\n",
			d.Name, d.Long, wl.Graph.NumVertices, wl.Graph.NumEdges(), d.FullVertices, d.FullEdges, d.Scale)
	}

	var rep *energy.Report
	var detail *core.Detail
	if slices.Contains(baselines, spec.Config) && mode == modeResult {
		return fmt.Errorf("hyve-sim: -result needs a core configuration; %q has no canonical result document", spec.Config)
	}
	switch spec.Config {
	case "graphr":
		r, err := graphr.Simulate(graphr.Default(), wl)
		if err != nil {
			return err
		}
		rep = &r.Report
		if mode == modeText {
			fmt.Fprintf(w, "GraphR: %d non-empty 8×8 blocks, Navg %.2f\n", r.Detail.NonEmptyBlocks, r.Detail.Navg)
		}
	case "cpu":
		if rep, err = cpusim.Simulate(cpusim.NXgraph(), wl); err != nil {
			return err
		}
	case "cpu-opt":
		if rep, err = cpusim.Simulate(cpusim.Galois(), wl); err != nil {
			return err
		}
	default:
		payload, _, err := point.Run(context.Background(), cache.Off(), spec)
		if err != nil {
			return err
		}
		if mode == modeResult {
			_, err = w.Write(payload)
			return err
		}
		r, err := cache.DecodeResult(payload)
		if err != nil {
			return err
		}
		rep = &r.Report
		detail = &r.Detail
	}

	if mode == modeArtifact {
		return writeJSONPoint(w, d, spec.Config, rep, detail)
	}

	fmt.Fprintf(w, "config:      %s\n", rep.Config)
	fmt.Fprintf(w, "iterations:  %d\n", rep.Iterations)
	fmt.Fprintf(w, "time:        %v\n", rep.Time)
	fmt.Fprintf(w, "energy:      %v\n", rep.Energy.Total())
	fmt.Fprintf(w, "avg power:   %v\n", rep.AvgPower())
	fmt.Fprintf(w, "throughput:  %.1f MTEPS\n", rep.MTEPS())
	fmt.Fprintf(w, "efficiency:  %.1f MTEPS/W\n", rep.MTEPSPerWatt())
	fmt.Fprintf(w, "breakdown:   %v\n", &rep.Energy)

	if verbose && detail != nil {
		fmt.Fprintf(w, "\nP=%d intervals, %d×%d super blocks, %d iterations\n",
			detail.P, detail.SuperBlockSide, detail.SuperBlockSide, detail.Iterations)
		fmt.Fprintf(w, "per-iteration: load %v, process %v, writeback %v, overhead %v\n",
			detail.LoadTime, detail.ProcessTime, detail.WritebackTime, detail.OverheadTime)
		fmt.Fprintf(w, "off-chip vertex bytes/iter: src %d, dst %d, writeback %d\n",
			detail.SrcLoadBytes, detail.DstLoadBytes, detail.WritebackBytes)
		if detail.Gate.Transitions > 0 {
			fmt.Fprintf(w, "power gating: %d transitions, saved %v\n",
				detail.Gate.Transitions, detail.Gate.UngatedEnergy-detail.Gate.GatedEnergy)
		}
	}
	return nil
}

// writeJSONPoint emits one simulation point as a canonical artifact
// document: the dataset pinned in the manifest, the report's headline
// numbers (and, when the core simulator ran, its per-phase detail) as
// named metrics, and the per-component energy breakdown.
func writeJSONPoint(w io.Writer, d graph.Dataset, config string, rep *energy.Report, detail *core.Detail) error {
	art := obs.NewArtifact(
		fmt.Sprintf("%s-%s-%s", d.Name, rep.Algorithm, config),
		fmt.Sprintf("%s on %s under %s", rep.Algorithm, d.Name, rep.Config),
		obs.Manifest{Datasets: []obs.DatasetRef{{
			Name: d.Name, Long: d.Long, Scale: d.Scale, Seed: d.Seed,
			FullVertices: d.FullVertices, FullEdges: d.FullEdges,
		}}})
	art.AddMetric("iterations", float64(rep.Iterations), "")
	art.AddMetric("time", rep.Time.Seconds(), "s")
	art.AddMetric("energy", rep.Energy.Total().Joules(), "J")
	art.AddMetric("avg_power", rep.AvgPower().Watts(), "W")
	art.AddMetric("throughput", rep.MTEPS(), "MTEPS")
	art.AddMetric("efficiency", rep.MTEPSPerWatt(), "MTEPS/W")
	for _, c := range energy.Components() {
		if e := rep.Energy.Get(c); e > 0 {
			art.AddMetric("energy."+c.String(), e.Joules(), "J")
		}
	}
	if detail != nil {
		art.AddMetric("detail.p", float64(detail.P), "")
		art.AddMetric("detail.load_time", detail.LoadTime.Seconds(), "s/iter")
		art.AddMetric("detail.process_time", detail.ProcessTime.Seconds(), "s/iter")
		art.AddMetric("detail.writeback_time", detail.WritebackTime.Seconds(), "s/iter")
		art.AddMetric("detail.overhead_time", detail.OverheadTime.Seconds(), "s/iter")
		if detail.Gate.Transitions > 0 {
			art.AddMetric("detail.gate_transitions", float64(detail.Gate.Transitions), "")
			art.AddMetric("detail.gate_saved_energy",
				(detail.Gate.UngatedEnergy - detail.Gate.GatedEnergy).Joules(), "J")
		}
	}
	return art.EncodeJSON(w)
}
