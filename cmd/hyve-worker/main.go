// Command hyve-worker executes shards of a distributed sweep for a
// hyve-sweepd coordinator: it dials the coordinator, receives the sweep
// spec at handshake, and loops lease → simulate → stream canonical
// result documents → next lease until the coordinator reports the
// sweep done. Points resolve through the standard cache scheduler, so
// a worker with -cache-dir shares the same content-addressed store as
// every other tool.
//
// Usage:
//
//	hyve-worker -connect host:9631
//	hyve-worker -connect host:9631 -name rack3 -parallel 4
//	hyve-worker -connect host:9631 -chaos-delay 300ms   # fault-injection harnesses
//
// A lost connection is retried with capped jittered exponential backoff
// (-dial-retries attempts) — a worker outliving a coordinator restart
// rejoins by itself. -chaos-delay stretches each point's reporting,
// holding leases open; it exists purely so chaos harnesses (the
// cluster-smoke make target kills a worker mid-lease) can widen the
// window deterministically, and has no place in production runs.
//
// Exit status is 0 when the coordinator reported the sweep complete,
// 1 when the connection could not be (re)established.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cluster/jobs"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hyve-worker", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		connect     = fs.String("connect", "", "coordinator address (host:port); required")
		name        = fs.String("name", defaultName(), "worker name in coordinator logs and per-worker metrics")
		par         = fs.Int("parallel", 0, "points of a lease to execute concurrently (0 = GOMAXPROCS)")
		cacheDir    = fs.String("cache-dir", "", "share the on-disk content-addressed result cache rooted here")
		prepDir     = fs.String("prep-dir", "", "load datasets from hyve-prep v2 containers in this directory when present")
		dialRetries = fs.Int("dial-retries", 10, "redial attempts after a lost connection before giving up")
		chaosDelay  = fs.Duration("chaos-delay", 0, "fault-injection: sleep this long after computing each point before reporting it")
		verbose     = fs.Bool("v", false, "log lease traffic")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hyve-worker: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "hyve-worker: -connect is required")
		return 2
	}

	graph.SetPreparedDir(*prepDir)

	var sched *cache.Scheduler
	if *cacheDir != "" {
		sched = cache.New(cache.Config{Dir: *cacheDir})
	}
	cfg := cluster.WorkerConfig{
		Name:       *name,
		Factory:    jobs.Factory(jobs.ExecOptions{Cache: sched}),
		Parallel:   *par,
		ChaosDelay: *chaosDelay,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	redial := parallel.Backoff{Base: 200 * time.Millisecond, Cap: 5 * time.Second}
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", *connect)
		if err == nil {
			attempt = 0
			done, runErr := cluster.RunWorker(ctx, conn, cfg)
			if done {
				fmt.Fprintln(os.Stderr, "hyve-worker: sweep complete")
				return 0
			}
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "hyve-worker: interrupted")
				return 1
			}
			fmt.Fprintf(os.Stderr, "hyve-worker: connection lost: %v\n", runErr)
		} else {
			fmt.Fprintf(os.Stderr, "hyve-worker: dial %s: %v\n", *connect, err)
		}
		if attempt >= *dialRetries {
			fmt.Fprintf(os.Stderr, "hyve-worker: giving up after %d redial attempts\n", attempt)
			return 1
		}
		if err := redial.Wait(ctx, attempt); err != nil {
			return 1
		}
	}
}

// defaultName derives a stable worker name from the hostname.
func defaultName() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "worker"
	}
	if i := strings.IndexByte(h, '.'); i > 0 {
		h = h[:i]
	}
	return h
}
