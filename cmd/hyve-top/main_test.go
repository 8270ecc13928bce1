package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// sampleRegistry builds a registry resembling a mid-run hyve-bench
// process: pool counters, labeled utilization gauges, cache counters,
// and an exec-latency histogram.
func sampleRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Count("parallel.points.completed", 420)
	r.Count("parallel.points.inflight", 3)
	r.Gauge("parallel.workers", 4)
	for i, u := range []float64{0.91, 0.87, 0.95, 0.70} {
		r.Gauge(obs.WithLabel("parallel.worker.utilization", "worker", string(rune('0'+i))), u)
	}
	r.Count("cache.hits", 300)
	r.Count("cache.misses", 100)
	r.Count("cache.disk.hits", 10)
	r.Count("cache.coalesced", 10)
	for _, v := range []float64{0.001, 0.002, 0.004, 0.1, 0.12} {
		r.Observe("parallel.point.exec.seconds", v)
	}
	r.Gauge("bench.experiments.total", 24)
	r.Count("bench.experiments.completed", 6)
	return r
}

func expose(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderFrame(t *testing.T) {
	doc, err := obs.ParseProm(strings.NewReader(expose(t, sampleRegistry())))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, doc, nil, 0)
	got := out.String()
	for _, want := range []string{
		"420 completed", "3 in flight", "pool 4 workers",
		"cache", "% hit",
		"p50", "p90", "p99",
		"6/24 experiments",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
}

func TestRenderRatesAndETA(t *testing.T) {
	prevReg := sampleRegistry()
	prevDoc, err := obs.ParseProm(strings.NewReader(expose(t, prevReg)))
	if err != nil {
		t.Fatal(err)
	}
	nowReg := sampleRegistry()
	nowReg.Count("parallel.points.completed", 80) // +80 points
	nowReg.Count("bench.experiments.completed", 2)
	nowDoc, err := obs.ParseProm(strings.NewReader(expose(t, nowReg)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, nowDoc, prevDoc, 10*time.Second)
	got := out.String()
	if !strings.Contains(got, "8.0 pts/s") {
		t.Errorf("expected 8.0 pts/s rate:\n%s", got)
	}
	if !strings.Contains(got, "ETA") {
		t.Errorf("expected an ETA with progressing experiments:\n%s", got)
	}
}

// TestRenderETAIncludesReusedRate pins the -resume rate fix: the sweep
// numerator counts completed + reused experiments, so the rate feeding
// the ETA must use the same sum. A resume run that reuses artifacts
// used to show an ETA ~4x too long (only the completed delta counted).
func TestRenderETAIncludesReusedRate(t *testing.T) {
	prevReg := sampleRegistry()
	prevDoc, err := obs.ParseProm(strings.NewReader(expose(t, prevReg)))
	if err != nil {
		t.Fatal(err)
	}
	nowReg := sampleRegistry()
	// Over 10s: +2 completed and +6 reused → 8 experiments of progress,
	// 0.8/s, with done = 6+2+6 = 14 of 24. The 10 remaining at 0.8/s
	// give an ETA of 12.5s (12s or 13s after truncation/rounding);
	// counting only the completed delta (0.2/s) would print 50s.
	nowReg.Count("bench.experiments.completed", 2)
	nowReg.Count("bench.experiments.reused", 6)
	nowDoc, err := obs.ParseProm(strings.NewReader(expose(t, nowReg)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, nowDoc, prevDoc, 10*time.Second)
	got := out.String()
	if !strings.Contains(got, "14/24 experiments") {
		t.Fatalf("expected 14/24 progress (completed + reused):\n%s", got)
	}
	if !strings.Contains(got, "ETA 12s") && !strings.Contains(got, "ETA 13s") {
		t.Errorf("ETA should be ~12.5s from the combined completed+reused rate, not 50s from completed alone:\n%s", got)
	}
}

// TestRenderServePanel pins the hyve-serve panel: hidden without the
// hyve_serve_* families, rendered with counts and a request rate when a
// serve process is scraped.
func TestRenderServePanel(t *testing.T) {
	benchDoc, err := obs.ParseProm(strings.NewReader(expose(t, sampleRegistry())))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, benchDoc, nil, 0)
	if strings.Contains(out.String(), "serve ") {
		t.Errorf("serve panel rendered for a scrape without hyve_serve_* families:\n%s", out.String())
	}

	serveReg := func(admitted int64) *obs.Registry {
		r := obs.NewRegistry()
		r.Count("serve.requests.admitted", admitted)
		r.Count("serve.requests.rejected", 7)
		r.Count("serve.breaker.rejected", 2)
		r.Count("serve.inflight", 3)
		r.Count("serve.points.served", 500)
		r.Gauge("serve.breaker.open", 1)
		for _, v := range []float64{0.01, 0.05, 0.2} {
			r.Observe("serve.request.seconds", v)
		}
		return r
	}
	prevDoc, err := obs.ParseProm(strings.NewReader(expose(t, serveReg(100))))
	if err != nil {
		t.Fatal(err)
	}
	nowDoc, err := obs.ParseProm(strings.NewReader(expose(t, serveReg(150))))
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	render(&out, nowDoc, prevDoc, 10*time.Second)
	got := out.String()
	for _, want := range []string{
		"150 admitted", "7 rejected", "2 breaker-rejected", "3 in flight", "500 points",
		"5.0 req/s",
		"1 circuit breaker(s) open",
		"request", "p50",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("serve panel missing %q:\n%s", want, got)
		}
	}
}

func TestRunOnceAgainstServer(t *testing.T) {
	reg := sampleRegistry()
	srv := httptest.NewServer(reg.PromHandler())
	defer srv.Close()
	var out, errOut bytes.Buffer
	if code := run(srv.URL, time.Second, true, false, 0, "", &out, &errOut); code != 0 {
		t.Fatalf("run -once exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "hyve-top") || !strings.Contains(out.String(), "420 completed") {
		t.Errorf("unexpected -once frame:\n%s", out.String())
	}
}

func TestRunLintCleanAndRequire(t *testing.T) {
	body := expose(t, sampleRegistry())
	var out, errOut bytes.Buffer
	if code := runLint(body, "hyve_cache_hits_total,hyve_parallel_point_exec_seconds", &out, &errOut); code != 0 {
		t.Fatalf("clean exposition failed lint: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Errorf("lint success should summarize: %s", out.String())
	}
	errOut.Reset()
	if code := runLint(body, "hyve_not_a_real_family", &out, &errOut); code != 1 {
		t.Error("missing required family must fail lint")
	}
	if !strings.Contains(errOut.String(), "hyve_not_a_real_family") {
		t.Errorf("lint error should name the absent family: %s", errOut.String())
	}
}

func TestRunLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"duplicate series": `# HELP hyve_x_total h
# TYPE hyve_x_total counter
hyve_x_total 1
hyve_x_total 2
`,
		"missing TYPE": "hyve_y_total 1\n",
		"non-monotone buckets": `# HELP hyve_l_seconds h
# TYPE hyve_l_seconds histogram
hyve_l_seconds_bucket{le="0.1"} 5
hyve_l_seconds_bucket{le="+Inf"} 3
hyve_l_seconds_sum 1
hyve_l_seconds_count 3
`,
		"missing +Inf": `# HELP hyve_m_seconds h
# TYPE hyve_m_seconds histogram
hyve_m_seconds_bucket{le="0.1"} 5
hyve_m_seconds_sum 1
hyve_m_seconds_count 5
`,
	}
	for name, body := range cases {
		var out, errOut bytes.Buffer
		if code := runLint(body, "", &out, &errOut); code != 1 {
			t.Errorf("%s: lint passed a bad exposition:\n%s", name, body)
		}
	}
}

func TestFetchWaitsForLateEndpoint(t *testing.T) {
	reg := sampleRegistry()
	var ready atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		reg.PromHandler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	go func() {
		time.Sleep(300 * time.Millisecond)
		ready.Store(true)
	}()
	body, err := fetch(srv.URL, 5*time.Second)
	if err != nil {
		t.Fatalf("fetch did not wait out the warm-up: %v", err)
	}
	if !strings.Contains(body, "hyve_cache_hits_total") {
		t.Error("fetched document missing expected series")
	}
	srv.Close()
	if _, err := fetch(srv.URL, 0); err == nil {
		t.Error("closed endpoint should error without -wait")
	}
}
