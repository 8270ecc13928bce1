package serve

import (
	"context"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Shared HTTP wiring for every process that exposes the introspection
// surface — hyve-serve mounts it next to its API, hyve-bench and
// hyve-check behind -pprof. Centralizing it fixes what the CLIs used to
// get wrong: a bare http.ListenAndServe on the default mux has no
// ReadHeaderTimeout (one slowloris connection per worker pins the
// listener) and no shutdown path (the goroutine leaks past the run).

// DebugMux returns a mux serving the full introspection surface:
// /metrics (Prometheus text), /debug/flight, /debug/trace, and
// /debug/pprof/* — explicitly registered, so nothing rides on the
// global DefaultServeMux.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Metrics().PromHandler())
	mux.Handle("/debug/flight", obs.FlightHandler())
	mux.Handle("/debug/trace", obs.TraceHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewHTTPServer returns an http.Server configured the way every hyve
// process should listen: a ReadHeaderTimeout so a slow-header client
// cannot hold a connection open indefinitely (slowloris), an idle
// timeout reclaiming dead keep-alives, and no WriteTimeout — sweep
// responses stream for as long as the simulation runs, bounded by the
// per-request deadline instead.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// DebugServer wires the standard observability stack (the Metrics
// registry as the default recorder, span tracing, cache metric
// families) and returns a configured server for the debug mux, started
// by the caller and shut down on drain:
//
//	srv := serve.DebugServer(addr)
//	go srv.ListenAndServe()
//	defer serve.ShutdownServer(srv, 5*time.Second)
func DebugServer(addr string) *http.Server {
	obs.SetDefault(obs.Metrics())
	obs.EnableTracing(0)
	cache.RegisterMetrics(obs.Default())
	return NewHTTPServer(addr, DebugMux())
}

// ShutdownServer drains srv gracefully within timeout: the listener
// closes immediately, in-flight requests get until the deadline, then
// the server is forcibly closed. A nil srv is a no-op.
func ShutdownServer(srv *http.Server, timeout time.Duration) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}
