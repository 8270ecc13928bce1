// Command hyve-bench regenerates the paper's evaluation artifacts: every
// table and figure, or a selected one, written as aligned text tables.
//
// Usage:
//
//	hyve-bench                 # run everything (full datasets, parallel)
//	hyve-bench -quick          # small datasets, reduced sweeps
//	hyve-bench -run fig16      # one artifact (or a comma-separated list)
//	hyve-bench -list           # enumerate artifacts
//	hyve-bench -parallel 1     # fully serial (reference behaviour)
//	hyve-bench -artifact-dir d # also emit canonical JSON artifacts to d
//	hyve-bench -cache-dir c    # content-addressed result cache across runs
//	hyve-bench -scale 4        # multiply every dataset's down-scale divisor
//	hyve-bench -seed 7         # re-seed every dataset generator (XOR)
//	hyve-bench -pprof :6060    # serve pprof, /metrics, /debug/flight, /debug/trace
//	hyve-bench -log-level warn # quieter progress (debug|info|warn|error)
//	hyve-bench -trace t.json   # export the span trace (Chrome trace_event)
//
// Progress goes to stderr as leveled logfmt lines (-log-level selects
// the floor, default info), keeping stdout pipeable. With -pprof the
// process also serves Prometheus text exposition at /metrics (counters,
// gauges, and latency histograms with hyve_-prefixed stable names — see
// EXPERIMENTS.md for the reference table), the flight recorder at
// /debug/flight, and the live span trace at /debug/trace; cmd/hyve-top
// renders a terminal dashboard from /metrics. With -trace the full span
// hierarchy (run → experiment → point → simulated phases) is written as
// a Chrome trace_event document on exit, loadable in a trace viewer.
//
// Every simulation point is submitted through the internal/cache
// scheduler, so points shared between experiments execute once per run;
// with -cache-dir the results persist in an on-disk content-addressed
// store and a repeat run re-executes nothing (-no-cache disables all
// reuse). Artifact provenance is digest-checked: -resume reruns any
// experiment whose surviving artifact was produced under different
// options (a changed -scale, -seed, or -quick) or by an earlier method
// of the experiment, instead of silently keeping stale results.
//
// With more than one worker the experiments run concurrently (and fan
// their own points across the same pool). Output is buffered per
// experiment and emitted in paper order, so the artifact bytes are
// identical at any -parallel value; per-experiment timing and the
// closing speedup line go to stderr, keeping stdout pipeable.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		run      = flag.String("run", "", "run selected experiments by id, comma-separated (e.g. fig16 or table3,fig9)")
		quick    = flag.Bool("quick", false, "reduced datasets and sweeps")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		par      = flag.Int("parallel", 0, "worker count for simulation points and concurrent experiments (0 = GOMAXPROCS, 1 = serial)")
		artDir   = flag.String("artifact-dir", "", "also write one canonical JSON artifact per experiment (plus manifest.json) to this directory")
		resume   = flag.Bool("resume", false, "with -artifact-dir: skip experiments whose artifact file already exists, validates, and matches the current options digest; rerun missing, damaged, or differently-configured ones")
		pprof    = flag.String("pprof", "", "serve net/http/pprof, /metrics (worker-pool counters included), /debug/flight and /debug/trace on this address (e.g. :6060)")
		scale    = flag.Int("scale", 1, "multiply every dataset's down-scale divisor by this factor (1 = paper scales)")
		seed     = flag.Uint64("seed", 0, "XOR this into every dataset's generator seed (0 = paper seeds)")
		cacheDir = flag.String("cache-dir", "", "persist simulation results in an on-disk content-addressed cache rooted here, reused across runs")
		noCache  = flag.Bool("no-cache", false, "disable all simulation-result reuse, including the in-memory per-run cache")
		logLevel = flag.String("log-level", "info", "progress log floor: debug, info, warn, or error")
		trace    = flag.String("trace", "", "write the run's span trace to this file as Chrome trace_event JSON (implies tracing on)")
		prepDir  = flag.String("prep-dir", "", "load datasets from hyve-prep v2 containers in this directory when present (bit-identical to generation; missing datasets are generated)")
	)
	flag.Parse()

	graph.SetPreparedDir(*prepDir)

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyve-bench:", err)
		os.Exit(1)
	}
	log := obs.NewLogger(os.Stderr, level)
	// A panic or point timeout anywhere in the run dumps the flight
	// recorder's last events to stderr for post-mortem context.
	obs.SetFlightDump(os.Stderr)

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *pprof != "" {
		// The full introspection surface — /metrics, pprof, flight
		// recorder, span trace — on one properly configured server
		// (header timeouts, explicit mux, graceful shutdown on exit), not
		// a bare ListenAndServe on the default mux.
		srv := serve.DebugServer(*pprof)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("pprof.server", "err", err)
			}
		}()
		defer serve.ShutdownServer(srv, 5*time.Second)
		log.Info("observability.listening", "addr", *pprof,
			"endpoints", "/metrics /debug/pprof /debug/flight /debug/trace")
	}
	if *trace != "" && !obs.TracingEnabled() {
		obs.EnableTracing(0)
	}

	opt := experiments.Options{Quick: *quick, Parallel: *par}
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "hyve-bench: -scale must be at least 1")
		os.Exit(1)
	}
	if *scale > 1 || *seed != 0 {
		opt.Datasets = scaledDatasets(*quick, *scale, *seed)
	}
	// One scheduler for the whole run, so points shared between
	// experiments execute once.
	if *noCache {
		opt.Cache = cache.Off()
	} else {
		opt.Cache = cache.New(cache.Config{Dir: *cacheDir})
	}
	todo, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *resume && *artDir == "" {
		fmt.Fprintln(os.Stderr, "hyve-bench: -resume requires -artifact-dir")
		os.Exit(1)
	}

	if err := runAll(os.Stdout, log, todo, opt, *artDir, *resume); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *trace != "" {
		if err := writeTrace(*trace); err != nil {
			fmt.Fprintln(os.Stderr, "hyve-bench: writing trace:", err)
			os.Exit(1)
		}
		log.Info("trace.written", "file", *trace, "spans", len(obs.Tracing().Snapshot()),
			"dropped", obs.Tracing().Dropped())
	}
}

// writeTrace exports the global span buffer as a Chrome trace_event
// document, loadable in chrome://tracing or Perfetto.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Tracing().WriteCatapult(f, "hyve-bench"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scaledDatasets builds the dataset override for -scale/-seed: the
// paper's registry (truncated to the quick subset exactly as
// Options.datasets would truncate it) with every down-scale divisor
// multiplied by scale and every generator seed XORed with seed. The
// instances land in the artifact manifests and the options digest, so a
// -resume against artifacts produced at a different scale or seed
// reruns instead of keeping stale results.
func scaledDatasets(quick bool, scale int, seed uint64) []graph.Dataset {
	ds := graph.Datasets
	if quick {
		ds = ds[:2]
	}
	out := make([]graph.Dataset, len(ds))
	for i, d := range ds {
		d.Scale *= scale
		d.Seed ^= seed
		out[i] = d
	}
	return out
}

// selectExperiments resolves a -run list to experiments, in the order
// given. Unknown ids error (ByID names the valid ones), duplicates error
// rather than silently running an experiment twice, and an all-empty
// list ("", ",") errors rather than running nothing.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	if run == "" {
		return experiments.All(), nil
	}
	var todo []experiments.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if seen[id] {
			return nil, fmt.Errorf("hyve-bench: experiment %q listed twice in -run", id)
		}
		seen[id] = true
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		todo = append(todo, e)
	}
	if len(todo) == 0 {
		return nil, fmt.Errorf("hyve-bench: -run %q selects no experiments", run)
	}
	return todo, nil
}
