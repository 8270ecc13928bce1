package obs

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/units"
)

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{HistogramBound(0), 0},          // exact smallest bound
		{HistogramBound(0) * 1.0001, 1}, // just past it
		{1.0, -histMinExp},              // 2^0 exactly: bucket with le = 1
		{0.5, -histMinExp - 1},
		{3.0, -histMinExp + 2}, // (2, 4]
		{1e12, histNumBounds},  // overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket's bound must land in its own bucket (v <= le
	// is inclusive), and a hair above must land in the next.
	for i := 0; i < histNumBounds; i++ {
		b := HistogramBound(i)
		if got := bucketIndex(b); got != i {
			t.Fatalf("bound %d (%g) classified into bucket %d", i, b, got)
		}
	}
}

func TestHistogramSampleAndQuantiles(t *testing.T) {
	var h Histogram
	h.Observe(-1)         // dropped
	h.Observe(math.NaN()) // dropped
	for i := 0; i < 100; i++ {
		h.Observe(0.010) // all in the (2^-7, 2^-6] bucket
	}
	s := h.Sample("t")
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100 (negative/NaN must be dropped)", s.Count)
	}
	if math.Abs(s.Sum-1.0) > 1e-9 {
		t.Errorf("sum = %g, want 1.0", s.Sum)
	}
	// All mass in one bucket: every quantile interpolates inside
	// (2^-7, 2^-6] = (0.0078, 0.0156].
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q <= 0.0078 || q > 0.0157 {
			t.Errorf("quantile %g outside the observed bucket", q)
		}
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: p50=%g p90=%g p99=%g", s.P50, s.P90, s.P99)
	}
	// Buckets are cumulative and end at +Inf.
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.LE, 1) || last.Count != 100 {
		t.Errorf("closing bucket %+v, want +Inf/100", last)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Error("cumulative bucket counts decrease")
		}
		if s.Buckets[i].LE <= s.Buckets[i-1].LE {
			t.Error("bucket bounds out of order")
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Sample("empty")
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty histogram sample not zero: %+v", s)
	}
	if len(s.Buckets) != 1 || !math.IsInf(s.Buckets[0].LE, 1) {
		t.Errorf("empty histogram must still close with +Inf: %+v", s.Buckets)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("lost observations: count = %d, want %d", got, workers*per)
	}
	want := 0.0
	for w := 1; w <= workers; w++ {
		want += float64(w) * 0.001 * per
	}
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("sum = %g, want %g (CAS accumulation lost updates)", h.Sum(), want)
	}
}

func TestRegistryHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	Observe(r, "lat.seconds", 0.5)
	Observe(r, "lat.seconds", 0.7)
	Observe(Nop{}, "lat.seconds", 0.5) // must not panic: Nop lacks the extension
	ObserveSince(r, "since.seconds", time.Now().Add(-10*time.Millisecond))
	s := r.Snapshot()
	if len(s.Histograms) != 2 {
		t.Fatalf("want 2 histograms in snapshot, got %d", len(s.Histograms))
	}
	if s.Histograms[0].Name != "lat.seconds" || s.Histograms[0].Count != 2 {
		t.Errorf("unexpected first histogram: %+v", s.Histograms[0])
	}
	if since := s.Histograms[1]; since.Sum < 0.005 || since.Sum > 5 {
		t.Errorf("ObserveSince recorded implausible elapsed %g", since.Sum)
	}
}

// TestSpanDeterministicIDs builds the same span tree twice (fresh
// buffers) and asserts every span gets the same id both times — the
// property that makes traces diffable across runs.
func TestSpanDeterministicIDs(t *testing.T) {
	build := func() []TraceSpan {
		EnableTracing(64)
		defer DisableTracing()
		ctx, run := StartSpan(context.Background(), "run")
		ectx, exp := StartSpan(ctx, "experiment fig14")
		_, p1 := StartSpanWithID(ectx, "point a", 0xdeadbeef)
		AddSimSpan(p1, "sim", "load", 0, units.Time(2e12))
		AddSimSpan(p1, "sim", "load", units.Time(2e12), units.Time(2e12))
		p1.End()
		_, p2 := StartSpan(ectx, "point b")
		p2.End()
		exp.End()
		run.End()
		return Tracing().Snapshot()
	}
	a := build()
	b := build()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent || a[i].Name != b[i].Name {
			t.Errorf("span %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Same-named siblings (the two "load" sim spans) must get distinct ids.
	var loads []uint64
	for _, s := range a {
		if s.Name == "load" {
			loads = append(loads, s.ID)
		}
	}
	if len(loads) != 2 || loads[0] == loads[1] {
		t.Errorf("same-named sibling spans share an id: %v", loads)
	}
	// The explicit-id point span carries exactly the digest-derived id.
	found := false
	for _, s := range a {
		if s.Name == "point a" {
			found = true
			if s.ID != 0xdeadbeef {
				t.Errorf("point span id = %#x, want the explicit digest id", s.ID)
			}
		}
	}
	if !found {
		t.Error("point span missing from trace")
	}
}

func TestSpanDisabledIsNil(t *testing.T) {
	DisableTracing()
	ctx, h := StartSpan(context.Background(), "x")
	if h != nil {
		t.Fatal("StartSpan must return a nil handle while tracing is disabled")
	}
	// Nil handles are safe everywhere.
	h.SetAttr("k", "v")
	h.End()
	if h.ID() != 0 {
		t.Error("nil handle id must be 0")
	}
	AddSimSpan(h, "sim", "p", 0, 1)
	if SpanFromContext(ctx) != nil {
		t.Error("disabled StartSpan must not attach a span to the context")
	}
}

func TestTraceBufferBoundedAndExports(t *testing.T) {
	EnableTracing(4)
	defer DisableTracing()
	ctx, root := StartSpan(context.Background(), "root")
	for i := 0; i < 10; i++ {
		_, c := StartSpan(ctx, "child "+strconv.Itoa(i))
		c.End()
	}
	root.End()
	buf := Tracing()
	if got := len(buf.Snapshot()); got != 4 {
		t.Errorf("ring holds %d spans, want capacity 4", got)
	}
	if buf.Dropped() != 7 { // 11 completed spans - 4 kept
		t.Errorf("dropped = %d, want 7", buf.Dropped())
	}
	var jsonl bytes.Buffer
	if err := buf.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != 4 {
		t.Errorf("JSONL lines = %d, want 4", lines)
	}
	var cat bytes.Buffer
	if err := buf.WriteCatapult(&cat, "test"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, `"process_name"`} {
		if !strings.Contains(cat.String(), want) {
			t.Errorf("catapult export missing %s", want)
		}
	}
}

func TestSpanConcurrent(t *testing.T) {
	EnableTracing(1024)
	defer DisableTracing()
	ctx, root := StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := StartSpan(ctx, "w")
				s.SetAttr("i", strconv.Itoa(i))
				AddSimSpan(s, "sim", "phase", 0, 1)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if buf := Tracing(); buf.Dropped()+uint64(len(buf.Snapshot())) != 8*200*2+1 {
		t.Errorf("span accounting off: %d buffered + %d dropped",
			len(buf.Snapshot()), buf.Dropped())
	}
}

func TestFlightRing(t *testing.T) {
	f := NewFlightRing(3)
	for i := 0; i < 5; i++ {
		f.Record("k", strconv.Itoa(i), "a", "b")
	}
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	// Oldest first, holding the last 3 of 5.
	for i, e := range snap {
		if want := strconv.Itoa(i + 2); e.Name != want {
			t.Errorf("snap[%d].Name = %s, want %s", i, e.Name, want)
		}
	}
	if f.Total() != 5 {
		t.Errorf("total = %d, want 5", f.Total())
	}
	if snap[0].Seq >= snap[1].Seq {
		t.Error("sequence numbers not increasing")
	}
	if snap[0].Attr["a"] != "b" {
		t.Error("attrs lost")
	}
}

func TestFlightDumpWriterGate(t *testing.T) {
	SetFlightDump(nil)
	DumpFlight("should be silent") // must not panic, must write nowhere
	var out bytes.Buffer
	SetFlightDump(&out)
	defer SetFlightDump(nil)
	Flight().Record("test.event", "x")
	DumpFlight("unit test")
	got := out.String()
	if !strings.Contains(got, "flight recorder dump (unit test)") {
		t.Errorf("dump missing reason header:\n%s", got)
	}
	if !strings.Contains(got, `"kind":"test.event"`) {
		t.Errorf("dump missing recorded event:\n%s", got)
	}
}

func TestFlightConcurrent(t *testing.T) {
	f := NewFlightRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record("k", strconv.Itoa(w))
			}
		}(w)
	}
	wg.Wait()
	if f.Total() != 8*500 {
		t.Errorf("total = %d, want %d", f.Total(), 8*500)
	}
	if len(f.Snapshot()) != 64 {
		t.Errorf("snapshot = %d, want capacity 64", len(f.Snapshot()))
	}
}

// TestPromRoundTrip renders a realistic registry and feeds the document
// back through the parser and linter: zero violations, and spot-checked
// series surviving the round trip with their names, labels, and types.
func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Count("cache.hits", 12)
	r.Count("parallel.points.inflight", 2) // up/down → gauge
	r.Gauge(WithLabel("parallel.worker.utilization", "worker", "0"), 0.25)
	r.Gauge(WithLabel("parallel.worker.utilization", "worker", "1"), 0.75)
	r.PhaseTime("sim.phase.load", units.Time(3e12)) // 3 simulated seconds
	r.PhaseEnergy("sim.energy.edge-memory", units.Energy(2e12))
	r.Observe("cache.exec.seconds", 0.25)
	r.Observe("cache.exec.seconds", 2.0)
	r.Observe(WithLabel("check.invariant.seconds", "invariant", "edp model"), 0.125)
	done := r.Timer("warm.up")
	done()

	var b bytes.Buffer
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	doc, errs := LintProm(strings.NewReader(text))
	for _, e := range errs {
		t.Errorf("lint: %v", e)
	}
	if v, ok := doc.Value("hyve_cache_hits_total"); !ok || v != 12 {
		t.Errorf("hyve_cache_hits_total = %v, %v", v, ok)
	}
	if doc.Types["hyve_parallel_points_inflight"] != "gauge" {
		t.Errorf("inflight typed %q, want gauge (up/down counter)", doc.Types["hyve_parallel_points_inflight"])
	}
	if v, ok := doc.Value("hyve_sim_phase_load_seconds_total"); !ok || math.Abs(v-3) > 1e-12 {
		t.Errorf("phase seconds = %v, %v (want 3 simulated seconds)", v, ok)
	}
	if v, ok := doc.Value("hyve_sim_energy_edge_memory_joules_total"); !ok || math.Abs(v-2) > 1e-12 {
		t.Errorf("energy joules = %v, %v", v, ok)
	}
	utils := doc.SamplesNamed("hyve_parallel_worker_utilization")
	if len(utils) != 2 || utils[0].Label("worker") == "" {
		t.Errorf("labeled gauges did not survive: %+v", utils)
	}
	if doc.Types["hyve_cache_exec_seconds"] != "histogram" {
		t.Error("histogram family not typed histogram")
	}
	buckets := doc.SamplesNamed("hyve_cache_exec_seconds_bucket")
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	if q := HistQuantile(buckets, 0.5); q <= 0 || q > 2.1 {
		t.Errorf("round-tripped p50 = %g out of range", q)
	}
	// Labeled histogram series keep their label beside le.
	inv := doc.SamplesNamed("hyve_check_invariant_seconds_bucket")
	if len(inv) == 0 || inv[0].Label("invariant") != "edp model" {
		t.Errorf("labeled histogram lost its label: %+v", inv)
	}
	if !strings.Contains(text, `invariant="edp model"`) {
		t.Error("escaped label value missing from text")
	}
	// Every family starts with the namespace.
	for fam := range doc.Types {
		if !strings.HasPrefix(fam, PromPrefix) {
			t.Errorf("family %s missing %s prefix", fam, PromPrefix)
		}
	}
}

func TestPromDeterministicOutput(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Count("b.two", 2)
		r.Count("a.one", 1)
		r.Gauge(WithLabel("g", "k", "2"), 2)
		r.Gauge(WithLabel("g", "k", "1"), 1)
		r.Observe("h.seconds", 0.5)
		var b bytes.Buffer
		if err := WriteProm(&b, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if build() != build() {
		t.Error("exposition output not deterministic")
	}
}

func TestLoggerFormat(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC) }
	l.Debug("hidden")
	l.Info("experiment.done", "id", "fig14", "elapsed", 1500*time.Millisecond, "note", "two words", "speedup", 3.25)
	l.Error("boom", "err", errTest{"file not found"})
	got := b.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines (debug suppressed at info), got %d:\n%s", len(lines), got)
	}
	want := `ts=2026-08-09T12:00:00Z level=info msg=experiment.done id=fig14 elapsed=1.5s note="two words" speedup=3.25`
	if lines[0] != want {
		t.Errorf("logfmt line:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `level=error`) || !strings.Contains(lines[1], `err="file not found"`) {
		t.Errorf("error line: %s", lines[1])
	}
	// Nil logger and odd kv are safe.
	var nilLogger *Logger
	nilLogger.Info("nothing happens")
	if nilLogger.Enabled(LevelError) {
		t.Error("nil logger must report disabled")
	}
	b.Reset()
	l.Warn("odd", "only-key")
	if !strings.Contains(b.String(), "!odd-kv=only-key") {
		t.Errorf("odd kv not surfaced: %s", b.String())
	}
}

type errTest struct{ s string }

func (e errTest) Error() string { return e.s }

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, " error ": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("unknown level must error")
	}
}
