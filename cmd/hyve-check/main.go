// Command hyve-check runs the differential-conformance suite: seeded
// random (dataset, algorithm, configuration) points on which every
// model of the machine — cost simulator, controller trace, analytic
// equations, GraphR model and crossbar emulation, functional engines —
// must agree within documented tolerance.
//
// Usage:
//
//	hyve-check                       # 30s budget, seed 1
//	hyve-check -seed 42 -points 1 -v # reproduce one reported point
//	hyve-check -list                 # invariants and tolerances
//	hyve-check -pprof :6060          # serve pprof, /metrics, /debug/flight
//
// Every point draws a fresh graph and assembles its own machine, shared
// by that point's invariants and by nothing else. Points run on one
// worker per CPU (GOMAXPROCS=1 runs them one at a time); progress lines
// and the report come out in seed order, the same at any worker count.
//
// Exit status is 0 when every invariant held at every point, 1 when a
// violation was found, 2 on setup failure — or when points hit
// -point-timeout and no violation was found, so an incomplete sweep
// can never pass silently.
//
// The first point that times out dumps the flight recorder's last
// events (what the points were doing when it wedged) to stderr, once
// per run; -pprof
// additionally serves the live introspection endpoints — /metrics with
// per-invariant latency histograms, /debug/flight, /debug/trace — on the
// given address while the sweep runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	// Point timeouts and worker panics dump the flight recorder for
	// post-mortem context (the test harness, which calls run directly,
	// leaves the dump writer uninstalled and stays quiet).
	obs.SetFlightDump(os.Stderr)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("hyve-check", flag.ContinueOnError)
	fs.SetOutput(errOut)
	seed := fs.Uint64("seed", 1, "base seed; point i uses seed+i")
	points := fs.Int("points", 0, "number of points to sweep (0 = until -duration)")
	duration := fs.Duration("duration", 30*time.Second, "wall-clock budget (0 = until -points)")
	pointTimeout := fs.Duration("point-timeout", 60*time.Second, "abandon any single point that runs longer than this, record its seed, and continue (0 = no limit)")
	verbose := fs.Bool("v", false, "print every point, not just failures")
	list := fs.Bool("list", false, "list invariants and tolerances, then exit")
	pprof := fs.String("pprof", "", "serve pprof, /metrics, /debug/flight, and /debug/trace on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "hyve-check: unexpected arguments %q\n", fs.Args())
		return 2
	}

	if *list {
		fmt.Fprintf(out, "%-22s %s\n", "invariant", "tolerance")
		for _, inv := range check.Invariants() {
			fmt.Fprintf(out, "%-22s %s\n", inv.Name, inv.Tolerance)
		}
		return 0
	}

	if *pprof != "" {
		// Configured server with header timeouts and a shutdown path,
		// replacing the old bare ListenAndServe on the default mux.
		srv := serve.DebugServer(*pprof)
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(errOut, "hyve-check: pprof server:", err)
			}
		}()
		defer serve.ShutdownServer(srv, 5*time.Second)
	}

	sum, err := check.Run(check.Options{
		Seed:         *seed,
		Points:       *points,
		Duration:     *duration,
		Verbose:      *verbose,
		Out:          out,
		PointTimeout: *pointTimeout,
	})
	if err != nil {
		fmt.Fprintf(errOut, "hyve-check: %v\n", err)
		return 2
	}
	sum.WriteReport(out)
	if !sum.OK() {
		return 1
	}
	if !sum.Complete() {
		// No violation was observed, but abandoned points mean the sweep
		// did not check everything: refuse to pass silently.
		fmt.Fprintf(errOut, "hyve-check: %d point(s) timed out; sweep incomplete\n", len(sum.TimedOut))
		return 2
	}
	return 0
}
