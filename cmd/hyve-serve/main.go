// Command hyve-serve runs the simulation service: a long-running HTTP
// process that accepts single (dataset, algorithm, configuration)
// points and sweep specs, executes them through the content-addressed
// result cache, and streams results back — plain canonical JSON for a
// point, NDJSON progress events for a sweep.
//
// Usage:
//
//	hyve-serve                        # listen on :8091, in-memory cache
//	hyve-serve -cache-dir c           # persist results across restarts
//	hyve-serve -rate 10 -burst 20     # admission budget (points/s, burst)
//	hyve-serve -parallel 4            # bound concurrent simulations
//	hyve-serve -request-timeout 5m    # per-request deadline ceiling
//
// Endpoints (see EXPERIMENTS.md for schemas):
//
//	POST /point    {"dataset":"YT","algo":"PR","config":"hyve-opt"}
//	POST /sweep    {"datasets":[...],"algos":[...],"configs":[...]}
//	GET  /healthz  liveness + drain state
//	GET  /metrics  Prometheus text (hyve_serve_* families and the rest)
//	     /debug/pprof /debug/flight /debug/trace
//
// A point response body is byte-identical to the canonical result
// document a direct `hyve-sim -result` run of the same point prints;
// run ids and content digests ride in X-Hyve-* headers. Overload is
// explicit: the token bucket answers 429 with Retry-After, a tripped
// per-dataset circuit breaker answers 503 with Retry-After, and a
// draining process answers 503 while every in-flight request runs to
// completion. SIGINT/SIGTERM starts that drain; a second signal, or
// -drain-timeout expiring, forces exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", ":8091", "listen address for the API and introspection endpoints")
		cacheDir        = flag.String("cache-dir", "", "persist simulation results in an on-disk content-addressed cache rooted here (empty = in-memory only)")
		par             = flag.Int("parallel", 0, "bound on concurrently executing simulations across all requests (0 = GOMAXPROCS)")
		rate            = flag.Float64("rate", 50, "admission budget: simulation points per second (a sweep spends one token per point)")
		burst           = flag.Int("burst", 100, "admission bucket capacity in points")
		breakerFails    = flag.Int("breaker-failures", 5, "consecutive failures on one dataset that trip its circuit breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker rejects before half-open probing")
		requestTimeout  = flag.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline ceiling (clients may shorten via timeout_ms)")
		maxInflight     = flag.Int("max-inflight", serve.DefaultMaxInflight, "cap on concurrently admitted requests")
		maxSweep        = flag.Int("max-sweep-points", serve.DefaultMaxSweepPoints, "largest sweep cross product accepted")
		drainTimeout    = flag.Duration("drain-timeout", 2*time.Minute, "how long a signalled process waits for in-flight requests before forcing exit")
		node            = flag.Uint64("node", 0, "snowflake node id stamped into run ids (0-1023)")
		logLevel        = flag.String("log-level", "info", "log floor: debug, info, warn, or error")
		prepDir         = flag.String("prep-dir", "", "load datasets from hyve-prep v2 containers in this directory when present (bit-identical to generation; missing datasets are generated)")
	)
	flag.Parse()

	graph.SetPreparedDir(*prepDir)

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyve-serve:", err)
		os.Exit(1)
	}
	log := obs.NewLogger(os.Stderr, level)
	obs.SetFlightDump(os.Stderr)

	// Full observability stack from the start: recorder into the
	// Prometheus registry, span tracing on, every metric family announced
	// at zero so the first scrape sees the complete set.
	obs.SetDefault(obs.Metrics())
	obs.EnableTracing(0)
	cache.RegisterMetrics(obs.Default())
	serve.RegisterMetrics(obs.Default())

	srvr := serve.New(serve.Config{
		Sched:           cache.New(cache.Config{Dir: *cacheDir}),
		Workers:         *par,
		Rate:            *rate,
		Burst:           *burst,
		BreakerFailures: *breakerFails,
		BreakerCooldown: *breakerCooldown,
		RequestTimeout:  *requestTimeout,
		MaxSweepPoints:  *maxSweep,
		MaxInflight:     *maxInflight,
		Node:            *node,
		Log:             log,
	})

	// One listener for everything: the API routes plus the shared
	// introspection mux (/metrics, /debug/*).
	mux := serve.DebugMux()
	mux.Handle("/point", srvr.Handler())
	mux.Handle("/sweep", srvr.Handler())
	mux.Handle("/healthz", srvr.Handler())
	httpSrv := serve.NewHTTPServer(*addr, mux)

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()
	log.Info("serve.listening", "addr", *addr,
		"rate", *rate, "burst", *burst, "workers", *par,
		"cache", map[bool]string{true: *cacheDir, false: "memory"}[*cacheDir != ""])

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hyve-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Info("serve.signal", "signal", sig.String())
	}

	// Graceful drain: stop admitting immediately, let every in-flight
	// request run to completion, then close the listener. A second
	// signal aborts the wait.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigc
		log.Warn("serve.drain.forced", "reason", "second signal")
		cancel()
	}()
	drainErr := srvr.Drain(drainCtx)
	serve.ShutdownServer(httpSrv, 5*time.Second)
	if drainErr != nil {
		log.Error("serve.drain", "err", drainErr)
		os.Exit(1)
	}
	log.Info("serve.drained", "inflight", 0)
}
