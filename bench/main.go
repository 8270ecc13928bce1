// Command bench is the repository benchmark: it measures the host time
// the simulator takes to produce evaluation points, end to end and per
// layer, on four workloads.
//
//	bench -workload sweep -seed 0 -seconds 25 -trace 0 [-out r.json]
//	bench -workload serve -seed 3 -trace 1 [-spans spans.jsonl]
//	bench -compare DIR_A DIR_B [-benchmark BENCHMARK.json]
//
// A run repeats rounds of its workload, each in a fresh process, until
// the next round would end after -seconds. It prints every metric by
// name and unit, then one JSON line with the end-to-end metrics
// (untraced) or the per-layer metrics (traced), and exits non-zero if
// any output check failed. bench/run.sh builds it from source and runs
// it; see bench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: sweep, cold-start, serve or figures")
	seed := flag.Uint64("seed", 0, "input seed: drives the order ops run in and serve's never-seen points")
	seconds := flag.Int("seconds", 25, "start rounds while the run would still end within this many seconds")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
	spans := flag.String("spans", "", "traced: write every round's obs spans to this file as JSON lines")
	out := flag.String("out", "", "write the result document (environment, every metric) to this file")
	cmp := flag.Bool("compare", false, "compare two directories of result documents given as arguments")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "-compare: file holding the metric bounds")
	round := flag.Int("round", -1, "internal: run round N of the workload and print its round document")
	probe := flag.Bool("probe", false, "internal: run the stage probe after the round")
	started := flag.Int64("started", time.Now().UnixNano(), "internal: when the round's process was launched, in Unix ns")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare takes two directories of result documents")
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1), *benchmark); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	traced := *trace == 1

	if *round >= 0 {
		pl, err := planFor(*workload, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		doc, err := runRoundAppendingSpans(pl, *round, time.Unix(0, *started), traced, *probe, *spans)
		if err != nil {
			fatalf("%s round %d: %v", *workload, *round, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			fatalf("%v", err)
		}
		return
	}

	res, err := runBenchmark(*workload, *seed, *seconds, traced, *spans, *out)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if err := report(os.Stdout, res); err != nil {
		fatalf("%v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runRoundAppendingSpans runs one round and, traced with a spans path,
// appends the round's spans to that file.
func runRoundAppendingSpans(pl *plan, round int, started time.Time, traced, probe bool, spansPath string) (*roundDoc, error) {
	if !traced || spansPath == "" {
		return runRound(pl, round, started, traced, probe, nil)
	}
	f, err := os.OpenFile(spansPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	doc, err := runRound(pl, round, started, traced, probe, w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return doc, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
