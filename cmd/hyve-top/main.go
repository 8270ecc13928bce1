// Command hyve-top is a live terminal monitor for a running hyve-bench
// (or hyve-check) process: it polls the Prometheus /metrics endpoint the
// -pprof flag serves and renders throughput, worker utilization, cache
// effectiveness, latency percentiles, and sweep progress with an ETA.
//
// Usage:
//
//	hyve-top                          # watch http://127.0.0.1:6060/metrics
//	hyve-top -url http://host:6060/metrics -interval 1s
//	hyve-top -once                    # one frame, no screen control
//	hyve-top -lint                    # validate the exposition and exit
//	hyve-top -lint -wait 30s -require hyve_cache_hits_total
//
// -lint is the machine gate behind `make obs-smoke`: it retries the
// endpoint until -wait expires, then fails unless the document parses,
// every family carries HELP/TYPE, histogram buckets are monotone
// cumulative with a closing +Inf, no series repeats, and every -require
// family is present.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:6060/metrics", "metrics endpoint to poll")
		interval = flag.Duration("interval", 2*time.Second, "poll interval in live mode")
		once     = flag.Bool("once", false, "render a single frame and exit")
		lint     = flag.Bool("lint", false, "validate the exposition document and exit (non-zero on any violation)")
		wait     = flag.Duration("wait", 0, "keep retrying an unreachable endpoint for this long before failing")
		require  = flag.String("require", "", "comma-separated metric families that must be present (with -lint)")
	)
	flag.Parse()
	os.Exit(run(*url, *interval, *once, *lint, *wait, *require, os.Stdout, os.Stderr))
}

func run(url string, interval time.Duration, once, lint bool, wait time.Duration, require string, out, errOut io.Writer) int {
	body, err := fetch(url, wait)
	if err != nil {
		fmt.Fprintf(errOut, "hyve-top: %v\n", err)
		return 2
	}
	if lint {
		// A required family may legitimately lag the endpoint coming up
		// (per-worker utilization publishes at the first pool drain), so
		// within -wait a scrape failing ONLY on absent required families
		// is refetched; structural violations fail immediately.
		deadline := time.Now().Add(wait)
		for {
			var quiet bytes.Buffer
			if code := runLint(body, require, out, &quiet); code == 0 || !onlyMissingRequired(quiet.String()) || time.Now().After(deadline) {
				io.Copy(errOut, &quiet)
				return code
			}
			time.Sleep(200 * time.Millisecond)
			if body, err = fetch(url, 0); err != nil {
				fmt.Fprintf(errOut, "hyve-top: %v\n", err)
				return 2
			}
		}
	}
	doc, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		fmt.Fprintf(errOut, "hyve-top: %v\n", err)
		return 2
	}
	if once {
		render(out, doc, nil, 0)
		return 0
	}
	prev := doc
	prevAt := time.Now()
	for {
		fmt.Fprint(out, "\x1b[H\x1b[2J") // home + clear
		render(out, doc, prev, time.Since(prevAt))
		prev, prevAt = doc, time.Now()
		time.Sleep(interval)
		body, err = fetch(url, 0)
		if err != nil {
			fmt.Fprintf(errOut, "hyve-top: %v (process exited?)\n", err)
			return 0
		}
		doc, err = obs.ParseProm(strings.NewReader(body))
		if err != nil {
			fmt.Fprintf(errOut, "hyve-top: %v\n", err)
			return 2
		}
	}
}

// fetch GETs the endpoint, retrying until wait expires (one immediate
// attempt when wait is zero).
func fetch(url string, wait time.Duration) (string, error) {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(url)
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(b), nil
			}
			if rerr != nil {
				err = rerr
			} else {
				err = fmt.Errorf("GET %s: %s", url, resp.Status)
			}
		}
		if time.Now().After(deadline) {
			return "", err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// onlyMissingRequired reports whether every lint error line is a
// "required family absent" one — the retryable class.
func onlyMissingRequired(errText string) bool {
	lines := strings.Split(strings.TrimSpace(errText), "\n")
	for _, l := range lines {
		if l != "" && !strings.Contains(l, "required family") {
			return false
		}
	}
	return len(errText) > 0
}

// runLint validates one exposition document and reports every violation.
func runLint(body, require string, out, errOut io.Writer) int {
	doc, errs := obs.LintProm(strings.NewReader(body))
	if doc != nil {
		for _, fam := range strings.Split(require, ",") {
			fam = strings.TrimSpace(fam)
			if fam == "" {
				continue
			}
			if _, ok := doc.Types[fam]; !ok {
				errs = append(errs, fmt.Errorf("required family %s absent", fam))
			}
		}
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(errOut, "hyve-top: lint: %v\n", e)
		}
		return 1
	}
	fmt.Fprintf(out, "ok: %d samples across %d families\n", len(doc.Samples), len(doc.Types))
	return 0
}

// render draws one frame from the current document; prev (the scrape dt
// ago) supplies rates and the ETA, and may be nil or identical to doc
// for a rateless frame (-once, first frame).
func render(w io.Writer, doc, prev *obs.PromDoc, dt time.Duration) {
	completed, _ := doc.Value("hyve_parallel_points_completed_total")
	inflight, _ := doc.Value("hyve_parallel_points_inflight")
	workers, _ := doc.Value("hyve_parallel_workers")
	rate := math.NaN()
	if prev != nil && dt > 0 {
		pc, _ := prev.Value("hyve_parallel_points_completed_total")
		rate = (completed - pc) / dt.Seconds()
	}
	fmt.Fprintf(w, "hyve-top — %s\n\n", time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "points    %8.0f completed   %3.0f in flight   pool %.0f workers", completed, inflight, workers)
	if !math.IsNaN(rate) {
		fmt.Fprintf(w, "   %6.1f pts/s", rate)
	}
	fmt.Fprintln(w)

	if util := doc.SamplesNamed("hyve_parallel_worker_utilization"); len(util) > 0 {
		sort.Slice(util, func(i, j int) bool { return util[i].Label("worker") < util[j].Label("worker") })
		fmt.Fprint(w, "workers   ")
		for _, s := range util {
			fmt.Fprintf(w, "[%s %s %3.0f%%] ", s.Label("worker"), bar(s.Value, 10), 100*s.Value)
		}
		fmt.Fprintln(w)
	}

	hits, _ := doc.Value("hyve_cache_hits_total")
	disk, _ := doc.Value("hyve_cache_disk_hits_total")
	misses, _ := doc.Value("hyve_cache_misses_total")
	coalesced, _ := doc.Value("hyve_cache_coalesced_total")
	if total := hits + disk + misses + coalesced; total > 0 {
		fmt.Fprintf(w, "cache     %5.1f%% hit  (%.0f mem, %.0f disk, %.0f coalesced, %.0f executed)\n",
			100*(hits+disk+coalesced)/total, hits, disk, coalesced, misses)
	}

	for _, h := range []struct{ fam, label string }{
		{"hyve_parallel_point_exec_seconds", "exec"},
		{"hyve_parallel_point_queue_seconds", "queue"},
		{"hyve_cache_lookup_seconds", "lookup"},
	} {
		buckets := doc.SamplesNamed(h.fam + "_bucket")
		if len(buckets) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-9s p50 %-10s p90 %-10s p99 %-10s\n", h.label,
			fmtSeconds(obs.HistQuantile(buckets, 0.50)),
			fmtSeconds(obs.HistQuantile(buckets, 0.90)),
			fmtSeconds(obs.HistQuantile(buckets, 0.99)))
	}

	expTotal, okT := doc.Value("hyve_bench_experiments_total")
	expDone, _ := doc.Value("hyve_bench_experiments_completed_total")
	expReused, _ := doc.Value("hyve_bench_experiments_reused_total")
	if okT && expTotal > 0 {
		done := expDone + expReused
		fmt.Fprintf(w, "sweep     %.0f/%.0f experiments %s %3.0f%%", done, expTotal,
			bar(done/expTotal, 20), 100*done/expTotal)
		if prev != nil && dt > 0 {
			// The progress numerator counts completed AND reused
			// experiments, so the rate must too: a -resume run that
			// reuses most artifacts would otherwise show a near-zero
			// rate and a wildly inflated ETA.
			pd, _ := prev.Value("hyve_bench_experiments_completed_total")
			pr, _ := prev.Value("hyve_bench_experiments_reused_total")
			if r := (done - (pd + pr)) / dt.Seconds(); r > 0 && expTotal > done {
				fmt.Fprintf(w, "   ETA %s", (time.Duration((expTotal-done)/r) * time.Second).Round(time.Second))
			}
		}
		fmt.Fprintln(w)
	}

	renderServe(w, doc, prev, dt)
}

// renderServe draws the hyve-serve panel when the scraped process
// exposes the hyve_serve_* families (a hyve-bench scrape has none, so
// the panel stays hidden).
func renderServe(w io.Writer, doc, prev *obs.PromDoc, dt time.Duration) {
	admitted, okA := doc.Value("hyve_serve_requests_admitted_total")
	rejected, okR := doc.Value("hyve_serve_requests_rejected_total")
	if !okA && !okR {
		return
	}
	inflight, _ := doc.Value("hyve_serve_inflight")
	brRejected, _ := doc.Value("hyve_serve_breaker_rejected_total")
	brOpen, _ := doc.Value("hyve_serve_breaker_open")
	points, _ := doc.Value("hyve_serve_points_served_total")
	fmt.Fprintf(w, "serve     %.0f admitted   %.0f rejected   %.0f breaker-rejected   %.0f in flight   %.0f points",
		admitted, rejected, brRejected, inflight, points)
	if prev != nil && dt > 0 {
		pa, _ := prev.Value("hyve_serve_requests_admitted_total")
		if r := (admitted - pa) / dt.Seconds(); r > 0 {
			fmt.Fprintf(w, "   %5.1f req/s", r)
		}
	}
	fmt.Fprintln(w)
	if brOpen > 0 {
		fmt.Fprintf(w, "          ⚠ %.0f circuit breaker(s) open\n", brOpen)
	}
	if buckets := doc.SamplesNamed("hyve_serve_request_seconds_bucket"); len(buckets) > 0 {
		fmt.Fprintf(w, "%-9s p50 %-10s p90 %-10s p99 %-10s\n", "request",
			fmtSeconds(obs.HistQuantile(buckets, 0.50)),
			fmtSeconds(obs.HistQuantile(buckets, 0.90)),
			fmtSeconds(obs.HistQuantile(buckets, 0.99)))
	}
}

// bar renders a fixed-width unicode utilization bar for v in [0, 1].
func bar(v float64, width int) string {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	full := int(v*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", width-full)
}

// fmtSeconds renders a latency with a unit that keeps 3 significant
// digits readable (µs/ms/s).
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
