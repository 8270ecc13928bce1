package experiments

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
)

// TestArtifactsByteIdenticalUnderFullObservation is the golden contract
// of the observability layer: turning everything on — metrics registry
// as the default recorder, span tracing, flight recording, a span
// context threaded through Options.Ctx — must not change a single
// artifact byte. The observed run gets a fresh scheduler so its points
// actually execute (rather than replaying the plain run's cache) with
// every probe live on the execution path.
func TestArtifactsByteIdenticalUnderFullObservation(t *testing.T) {
	runArtifact := func(id string, observed bool) []byte {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Quick: true, Cache: cache.New(cache.Config{})}
		if observed {
			reg := obs.NewRegistry()
			obs.SetDefault(reg)
			obs.EnableTracing(0)
			cache.RegisterMetrics(reg)
			defer obs.SetDefault(nil)
			defer obs.DisableTracing()
			ctx, span := obs.StartSpan(context.Background(), "test run")
			defer span.End()
			opt.Ctx = ctx
		}
		opt.Artifact = NewRunArtifact(e, opt)
		if err := e.Run(io.Discard, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b bytes.Buffer
		if err := opt.Artifact.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		if observed {
			// The observed run must actually have hit the live probes:
			// points executed and histograms populated, or this test
			// proves nothing.
			if reg := obs.Default(); reg == obs.Recorder(nil) {
				t.Fatal("observed run lost its recorder")
			}
			if !obs.TracingEnabled() {
				t.Fatal("observed run lost its trace buffer")
			}
		}
		return b.Bytes()
	}

	for _, id := range []string{"fig14", "table3"} {
		plain := runArtifact(id, false)
		observed := runArtifact(id, true)
		if !bytes.Equal(plain, observed) {
			t.Errorf("%s artifact differs with observation enabled:\n--- plain ---\n%s\n--- observed ---\n%s",
				id, plain, observed)
		}
		if len(plain) == 0 || plain[0] != '{' {
			t.Errorf("%s artifact does not look like JSON", id)
		}
	}
}

// TestObservedRunActuallyObserves guards against the identity test
// passing vacuously: with the full stack on, an executed experiment must
// land cache counters, latency histograms, and spans.
func TestObservedRunActuallyObserves(t *testing.T) {
	e, err := ByID("fig14")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	obs.EnableTracing(0)
	defer obs.SetDefault(nil)
	defer obs.DisableTracing()
	ctx, span := obs.StartSpan(context.Background(), "observed run")
	opt := Options{Quick: true, Cache: cache.New(cache.Config{}), Ctx: ctx}
	if err := e.Run(io.Discard, opt); err != nil {
		t.Fatal(err)
	}
	span.End()

	s := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range s.Counters {
		counters[c.Name] = c.Value
	}
	if counters[cache.MetricMisses] == 0 {
		t.Errorf("no cache misses recorded on a cold scheduler: %+v", counters)
	}
	if counters["parallel.points.completed"] == 0 {
		t.Error("no pool points recorded")
	}
	hists := map[string]uint64{}
	for _, h := range s.Histograms {
		hists[h.Name] = h.Count
	}
	for _, name := range []string{cache.MetricExecSec, cache.MetricLookupSec, "parallel.point.exec.seconds"} {
		if hists[name] == 0 {
			t.Errorf("histogram %s empty; have %v", name, hists)
		}
	}

	spans := obs.Tracing().Snapshot()
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Cat]++
	}
	if kinds["wall"] == 0 || kinds["sim"] == 0 {
		t.Errorf("expected wall and sim spans, got %v over %d spans", kinds, len(spans))
	}
	// The hierarchy must nest: at least one point span parented by an
	// id present in the trace (the run/experiment chain).
	ids := map[uint64]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	nested := 0
	for _, sp := range spans {
		if sp.Parent != 0 && ids[sp.Parent] {
			nested++
		}
	}
	if nested == 0 {
		t.Error("no span in the trace is parented by another buffered span")
	}
}
