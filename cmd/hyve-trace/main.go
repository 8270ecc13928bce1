// Command hyve-trace dumps the HyVE controller's off-chip access trace
// for one iteration of Algorithm 2 — every edge-block read and vertex
// interval transfer with byte-exact addresses against the §3.4 memory
// images — as CSV, JSON lines, a summary, or a Chrome trace_event
// timeline of the whole iteration (PU tracks, edge-memory bank
// awake/asleep spans, router activity) loadable in chrome://tracing or
// Perfetto.
//
// Usage:
//
//	hyve-trace -dataset YT -algo PR -config hyve-opt -format summary
//	hyve-trace -dataset WK -algo BFS -format csv -limit 100 > trace.csv
//	hyve-trace -dataset YT -algo PR -format jsonl -limit 100
//	hyve-trace -dataset YT -algo PR -config hyve-opt -format timeline > it.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/point"
)

func main() {
	var (
		dataset = flag.String("dataset", "YT", "dataset: YT, WK, AS, LJ, TW")
		algon   = flag.String("algo", "PR", "algorithm: PR, BFS, CC, SSSP, SpMV")
		config  = flag.String("config", "hyve-opt", "configuration with an on-chip vertex memory, of: "+strings.Join(point.Names(), ", "))
		format  = flag.String("format", "summary", "output: csv, jsonl, summary, or timeline (catapult JSON)")
		limit   = flag.Int64("limit", 0, "emit at most this many csv/jsonl records (0 = all)")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataset, *algon, *config, *format, *limit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, dataset, algon, config, format string, limit int64) error {
	cfg, wl, err := point.Spec{Dataset: dataset, Algo: algon, Config: config}.Resolve()
	if err != nil {
		return err
	}
	if !cfg.UseOnChipSRAM {
		return fmt.Errorf("config %q has no on-chip vertex memory to trace", config)
	}

	switch format {
	case "csv":
		return dumpCSV(w, cfg, wl, limit)
	case "jsonl":
		return dumpJSONL(w, cfg, wl, limit)
	case "summary":
		return summarize(w, cfg, wl)
	case "timeline":
		return dumpTimeline(w, cfg, wl)
	default:
		return fmt.Errorf("unknown format %q (want csv, jsonl, summary, or timeline)", format)
	}
}

func dumpCSV(w io.Writer, cfg core.Config, wl core.Workload, limit int64) error {
	fmt.Fprintln(w, "kind,addr,bytes,pu,blockx,blocky,interval,sbx,sby,step")
	var emitted int64
	return core.TraceIteration(cfg, wl, func(a core.Access) {
		if limit > 0 && emitted >= limit {
			return
		}
		emitted++
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			a.Kind, a.Addr, a.Bytes, a.PU, a.BlockX, a.BlockY, a.Interval,
			a.SuperBlockX, a.SuperBlockY, a.Step)
	})
}

// dumpJSONL emits one JSON object per access record, honoring limit the
// same way dumpCSV does. Field names match the CSV header.
func dumpJSONL(w io.Writer, cfg core.Config, wl core.Workload, limit int64) error {
	type rec struct {
		Kind     string `json:"kind"`
		Addr     int64  `json:"addr"`
		Bytes    int64  `json:"bytes"`
		PU       int    `json:"pu"`
		BlockX   int    `json:"blockx"`
		BlockY   int    `json:"blocky"`
		Interval int    `json:"interval"`
		SBX      int    `json:"sbx"`
		SBY      int    `json:"sby"`
		Step     int    `json:"step"`
	}
	enc := json.NewEncoder(w)
	var emitted int64
	var encErr error
	err := core.TraceIteration(cfg, wl, func(a core.Access) {
		if encErr != nil || (limit > 0 && emitted >= limit) {
			return
		}
		emitted++
		encErr = enc.Encode(rec{
			Kind: a.Kind.String(), Addr: a.Addr, Bytes: a.Bytes, PU: a.PU,
			BlockX: a.BlockX, BlockY: a.BlockY, Interval: a.Interval,
			SBX: a.SuperBlockX, SBY: a.SuperBlockY, Step: a.Step,
		})
	})
	if err != nil {
		return err
	}
	return encErr
}

// dumpTimeline renders one full iteration as a Chrome trace_event
// (catapult) JSON document: one track per PU, per touched edge-memory
// bank, and for the router when data sharing is on.
func dumpTimeline(w io.Writer, cfg core.Config, wl core.Workload) error {
	tl, err := core.BuildTimeline(cfg, wl)
	if err != nil {
		return err
	}
	return tl.WriteCatapult(w, fmt.Sprintf("%s %s on %s", cfg.Name, wl.Program.Name(), wl.DatasetName))
}

func summarize(w io.Writer, cfg core.Config, wl core.Workload) error {
	type agg struct {
		count int64
		bytes int64
	}
	byKind := map[core.AccessKind]*agg{}
	var total agg
	err := core.TraceIteration(cfg, wl, func(a core.Access) {
		k := byKind[a.Kind]
		if k == nil {
			k = &agg{}
			byKind[a.Kind] = k
		}
		k.count++
		k.bytes += a.Bytes
		total.count++
		total.bytes += a.Bytes
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace of one %s iteration on %s under %s\n", wl.Program.Name(), wl.DatasetName, cfg.Name)
	for _, kind := range []core.AccessKind{0, 1, 2, 3} {
		if k := byKind[kind]; k != nil {
			fmt.Fprintf(w, "  %-16s %10d accesses  %14d bytes\n", kind, k.count, k.bytes)
		}
	}
	fmt.Fprintf(w, "  %-16s %10d accesses  %14d bytes\n", "total", total.count, total.bytes)
	return nil
}
