// Command hyve-sweepd coordinates a distributed simulation sweep: it
// cuts the dataset × algorithm × configuration cross product into
// shards, leases shard ranges to hyve-worker processes over a
// length-framed CRC-checked TCP protocol, merges the returned canonical
// hyve/result/v1 documents by point index, and writes one artifact —
// byte-identical to `hyve-sim -result` over the same sweep, at any
// worker count, under any worker failure the lease machinery can
// absorb.
//
// Usage:
//
//	hyve-sweepd -listen :9631 -dataset YT,WK -algo PR,BFS -config hyve-opt,sd -out merged.jsonl
//	hyve-sweepd -dataset YT -algo PR -config hyve-opt -out merged.jsonl   # no listener: pure local
//	hyve-sweepd -listen :9631 -local=false ...                            # remote workers only
//
// Fault tolerance is the point: a worker that dies, stalls, trickles
// bytes, or returns corrupt payloads loses its leases, and the shards
// are reassigned — to other workers, or to the coordinator's own local
// executor when none are live (unless -local=false). A shard that
// distinct workers keep failing is quarantined as poisoned and the
// sweep exits nonzero rather than wedging. Progress and the full
// hyve_cluster_* metric families are served on -pprof; -linger holds
// the metrics endpoint open after completion so harnesses can scrape
// final counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cluster/jobs"
	"repro/internal/graph"
	"repro/internal/point"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hyve-sweepd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		listen      = fs.String("listen", "", "accept hyve-worker connections on this address (empty = no listener, pure local execution)")
		dataset     = fs.String("dataset", "YT", "datasets to sweep (comma-separated)")
		algon       = fs.String("algo", "PR", "algorithms to sweep (comma-separated)")
		config      = fs.String("config", "hyve-opt", "configurations to sweep (comma-separated): "+strings.Join(point.Names(), ", "))
		sramMB      = fs.Int64("sram", 2, "per-PU on-chip vertex memory in MB (accelerator configs; 0 = configuration default)")
		out         = fs.String("out", "", "write the merged artifact here (atomic rename); empty = stdout")
		shardSize   = fs.Int("shard", cluster.DefaultShardSize, "points per lease")
		leaseTTL    = fs.Duration("lease-ttl", cluster.DefaultLeaseTTL, "lease lifetime without a heartbeat or merged result")
		heartbeat   = fs.Duration("heartbeat", 0, "heartbeat interval workers are told to use (0 = lease-ttl/4)")
		poisonAfter = fs.Int("poison-after", cluster.DefaultPoisonAfter, "quarantine a shard after this many distinct workers fail it")
		local       = fs.Bool("local", true, "execute shards locally whenever no workers are live (degradation path)")
		cacheDir    = fs.String("cache-dir", "", "share the on-disk content-addressed result cache rooted here (empty = in-memory only)")
		prepDir     = fs.String("prep-dir", "", "load datasets from hyve-prep v2 containers in this directory when present")
		pprof       = fs.String("pprof", "", "serve pprof, /metrics, /debug/flight on this address (e.g. :6060)")
		linger      = fs.Duration("linger", 0, "keep serving -pprof this long after the sweep completes (metrics scrape window)")
		verbose     = fs.Bool("v", false, "log lease traffic")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hyve-sweepd: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *listen == "" && !*local {
		fmt.Fprintln(os.Stderr, "hyve-sweepd: -local=false with no -listen leaves nobody to execute the sweep")
		return 2
	}

	graph.SetPreparedDir(*prepDir)

	var srv *http.Server
	if *pprof != "" {
		srv = serve.DebugServer(*pprof)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "hyve-sweepd: pprof server:", err)
			}
		}()
		defer serve.ShutdownServer(srv, 5*time.Second)
	}

	spec, err := jobs.NewSimSpec(point.Sweep{
		Datasets: point.SplitList(*dataset),
		Algos:    point.SplitList(*algon),
		Configs:  point.SplitList(*config),
		SRAMMB:   *sramMB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
		return 2
	}
	job, err := jobs.Decode(spec, cache.New(cache.Config{Dir: *cacheDir}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
		return 2
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cfg := cluster.CoordinatorConfig{
		Spec:        spec,
		Points:      job.Points(),
		ShardSize:   *shardSize,
		LeaseTTL:    *leaseTTL,
		Heartbeat:   *heartbeat,
		PoisonAfter: *poisonAfter,
		Validate:    job.Validate,
		Logf:        logf,
	}
	if *local {
		cfg.Local = job
	}
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
		return 2
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "hyve-sweepd: %d points in %d-point shards; listening on %s\n",
			job.Points(), *shardSize, ln.Addr())
		go coord.Serve(ln)
	} else {
		fmt.Fprintf(os.Stderr, "hyve-sweepd: %d points in %d-point shards; local execution only\n",
			job.Points(), *shardSize)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := coord.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
		lingerFor(*linger)
		return 1
	}
	// Let connected workers learn the sweep is done (their next lease
	// request answers done=true) instead of seeing the coordinator
	// vanish mid-conversation and exiting through their redial path.
	drainWorkers(coord, 3*time.Second)
	st := coord.Stats()
	fmt.Fprintf(os.Stderr, "hyve-sweepd: %d points merged in %v (%d grants, %d reclaimed, %d reassigned, %d duplicate)\n",
		st.Merged, time.Since(start).Round(time.Millisecond), st.Granted, st.Reclaimed, st.Reassigned, st.Duplicate)

	if *out == "" {
		for _, p := range coord.Results() {
			if _, err := os.Stdout.Write(p); err != nil {
				fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
				return 1
			}
		}
	} else if err := coord.WriteArtifact(*out); err != nil {
		fmt.Fprintln(os.Stderr, "hyve-sweepd:", err)
		return 1
	}
	lingerFor(*linger)
	return 0
}

// drainWorkers waits (bounded) for live workers to disconnect: each
// one's next lease request is answered done=true and it exits cleanly.
// A worker that is dead but not yet timed out just caps the wait.
func drainWorkers(coord *cluster.Coordinator, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if coord.Stats().WorkersLive == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// lingerFor holds the process (and thus its -pprof endpoint) open so an
// external harness can scrape final hyve_cluster_* counters.
func lingerFor(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
