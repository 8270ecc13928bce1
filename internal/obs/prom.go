package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Prometheus text exposition (format version 0.0.4) over a Registry
// snapshot. Every series carries the stable "hyve_" prefix; dotted
// metric names mangle to underscore families; the "|k=v" label
// convention (see WithLabel) renders as real Prometheus labels.
//
// Naming rules, pinned here and documented in EXPERIMENTS.md:
//
//	counter  "cache.hits"            → hyve_cache_hits_total
//	counter  "parallel.points.inflight" (up/down) → hyve_parallel_points_inflight  (gauge)
//	gauge    "parallel.worker.utilization|worker=3"
//	                                 → hyve_parallel_worker_utilization{worker="3"}
//	phase    "sim.phase.load"        → hyve_sim_phase_load_seconds_total   (simulated seconds)
//	energy   "sim.energy.edge-memory"→ hyve_sim_energy_edge_memory_joules_total
//	timer    "x"                     → hyve_x_seconds_total                (wall seconds)
//	histogram "cache.exec.seconds"   → hyve_cache_exec_seconds{_bucket,_sum,_count}

// PromPrefix is the namespace every exposed series carries.
const PromPrefix = "hyve_"

// promFamily mangles a dotted metric base name into a Prometheus
// family name: lowercase the base, map every character outside
// [a-z0-9_] to '_', and prepend the namespace.
func promFamily(base string) string {
	var b strings.Builder
	b.Grow(len(PromPrefix) + len(base))
	b.WriteString(PromPrefix)
	for _, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitLabels splits the "|k=v|k2=v2" convention off a metric name and
// renders the label pairs in canonical (sorted, escaped) form without
// the surrounding braces; base is the remaining dotted name.
func splitLabels(name string) (base, labels string) {
	parts := strings.Split(name, "|")
	base = parts[0]
	if len(parts) == 1 {
		return base, ""
	}
	pairs := make([]string, 0, len(parts)-1)
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			k, v = p, ""
		}
		pairs = append(pairs, promFamily(k)[len(PromPrefix):]+"="+strconv.Quote(v))
	}
	sort.Strings(pairs)
	return base, strings.Join(pairs, ",")
}

// promValue formats v the way the exposition format wants.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// promHelp gives HELP text for the families instrumented today; unknown
// families get a generic line (the format requires one per family).
var promHelp = map[string]string{
	"hyve_parallel_points_completed_total":   "Simulation/experiment points completed by the worker pool.",
	"hyve_parallel_points_inflight":          "Points currently executing in the worker pool.",
	"hyve_parallel_points_panicked_total":    "Points whose execution panicked (recovered per-point).",
	"hyve_parallel_workers":                  "Workers of the most recently started pool.",
	"hyve_parallel_worker_utilization":       "Busy fraction of each pool worker over its pool's lifetime.",
	"hyve_parallel_point_exec_seconds":       "Wall-clock execution latency of one pool point.",
	"hyve_parallel_point_queue_seconds":      "Wall-clock wait from pool start to point execution start.",
	"hyve_cache_hits_total":                  "Result-cache in-memory hits.",
	"hyve_cache_disk_hits_total":             "Result-cache on-disk (content-addressed store) hits.",
	"hyve_cache_misses_total":                "Result-cache misses that executed a simulation.",
	"hyve_cache_coalesced_total":             "Submissions coalesced onto an in-flight identical point.",
	"hyve_cache_errors_total":                "Submissions whose execution failed (never cached).",
	"hyve_cache_bypassed_total":              "Submissions that skipped the cache (recorder attached or undigestable).",
	"hyve_cache_lookup_seconds":              "Digest computation plus cache-lookup latency per submission.",
	"hyve_cache_exec_seconds":                "Simulation execution latency on a cache miss.",
	"hyve_check_invariant_seconds":           "Wall-clock time of one invariant check, labeled by invariant.",
	"hyve_check_points_timedout_total":       "Conformance points abandoned at the point timeout.",
	"hyve_bench_experiments_total":           "Experiments selected for this hyve-bench run.",
	"hyve_bench_experiments_completed_total": "Experiments finished so far in this hyve-bench run.",
	"hyve_bench_experiments_reused_total":    "Experiments skipped by -resume with a valid artifact.",
	"hyve_sim_runs_total":                    "Completed cost-simulator runs.",
	"hyve_sim_iterations_total":              "Simulated algorithm iterations across all runs.",
	"hyve_sim_edges_processed_total":         "Edges streamed through the simulated PUs.",
	"hyve_serve_requests_admitted_total":     "Service requests admitted past the token bucket.",
	"hyve_serve_requests_rejected_total":     "Service requests rejected by admission control (429).",
	"hyve_serve_breaker_rejected_total":      "Point executions rejected by an open circuit breaker (503).",
	"hyve_serve_breaker_open":                "Circuit breakers currently open or half-open, across datasets.",
	"hyve_serve_inflight":                    "Admitted service requests currently executing.",
	"hyve_serve_request_seconds":             "End-to-end service request latency (admission to last byte).",
	"hyve_serve_points_served_total":         "Simulation points served successfully over HTTP.",
	"hyve_serve_drains_total":                "Graceful drains started (0 or 1 per process lifetime).",
}

// upDownCounters lists recorded-as-Count names that are semantically
// up/down gauges; the exposition types them gauge and drops _total.
var upDownCounters = map[string]bool{
	"parallel.points.inflight": true,
	"serve.inflight":           true,
}

type promSeries struct {
	family string
	typ    string // counter | gauge | histogram
	lines  []string
}

// WriteProm renders a Snapshot in the Prometheus text format: families
// sorted, HELP and TYPE emitted once per family, series sorted within.
func WriteProm(w io.Writer, s Snapshot) error {
	byFamily := map[string]*promSeries{}
	add := func(name, typ, suffix string, v float64) {
		base, labels := splitLabels(name)
		fam := promFamily(base) + suffix
		ps, ok := byFamily[fam]
		if !ok {
			ps = &promSeries{family: fam, typ: typ}
			byFamily[fam] = ps
		}
		line := fam
		if labels != "" {
			line += "{" + labels + "}"
		}
		ps.lines = append(ps.lines, line+" "+promValue(v))
	}
	for _, c := range s.Counters {
		base, _ := splitLabels(c.Name)
		if upDownCounters[base] {
			add(c.Name, "gauge", "", float64(c.Value))
		} else {
			add(c.Name, "counter", "_total", float64(c.Value))
		}
	}
	for _, g := range s.Gauges {
		add(g.Name, "gauge", "", g.Value)
	}
	for _, p := range s.Phases {
		add(p.Name, "counter", "_seconds_total", p.TimePS*1e-12)
	}
	for _, e := range s.Energies {
		add(e.Name, "counter", "_joules_total", e.EnergyPJ*1e-12)
	}
	for _, t := range s.Timers {
		add(t.Name, "counter", "_seconds_total", t.Seconds)
	}
	for _, h := range s.Histograms {
		base, labels := splitLabels(h.Name)
		fam := promFamily(base)
		ps, ok := byFamily[fam]
		if !ok {
			ps = &promSeries{family: fam, typ: "histogram"}
			byFamily[fam] = ps
		}
		for _, b := range h.Buckets {
			ls := `le="` + promValue(b.LE) + `"`
			if labels != "" {
				ls = labels + "," + ls
			}
			ps.lines = append(ps.lines, fmt.Sprintf("%s_bucket{%s} %d", fam, ls, b.Count))
		}
		brace := ""
		if labels != "" {
			brace = "{" + labels + "}"
		}
		ps.lines = append(ps.lines,
			fam+"_sum"+brace+" "+promValue(h.Sum),
			fmt.Sprintf("%s_count%s %d", fam, brace, h.Count))
	}

	fams := make([]string, 0, len(byFamily))
	for f := range byFamily {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		ps := byFamily[f]
		help, ok := promHelp[f]
		if !ok {
			help = "HyVE metric " + f + "."
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f, help, f, ps.typ); err != nil {
			return err
		}
		// Histogram bucket order must stay by ascending le within a
		// labelset; the sample order above already is. Sorting the
		// non-histogram lines keeps output deterministic.
		if ps.typ != "histogram" {
			sort.Strings(ps.lines)
		}
		for _, line := range ps.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// PromHandler serves the registry in the Prometheus text format — the
// /metrics endpoint.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, r.Snapshot())
	})
}

// --- global metrics registry --------------------------------------------

var (
	metricsOnce sync.Once
	metricsReg  *Registry
)

// Metrics returns the process-global Registry backing the /metrics
// endpoint. Commands that expose Prometheus install it as the default
// Recorder (serve.DebugServer does both):
//
//	obs.SetDefault(obs.Metrics())
//	mux.Handle("/metrics", obs.Metrics().PromHandler())
func Metrics() *Registry {
	metricsOnce.Do(func() { metricsReg = NewRegistry() })
	return metricsReg
}
