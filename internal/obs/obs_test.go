package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/units"
)

// TestNopZeroAlloc pins the hot-path contract: the disabled recorder
// performs no allocation on any method, so instrumented simulator inner
// paths pay nothing when observation is off.
func TestNopZeroAlloc(t *testing.T) {
	var r Recorder = Nop{}
	cases := map[string]func(){
		"Count":       func() { r.Count("x", 1) },
		"Gauge":       func() { r.Gauge("x", 1) },
		"PhaseTime":   func() { r.PhaseTime("x", units.Nanosecond) },
		"PhaseEnergy": func() { r.PhaseEnergy("x", 1) },
		"Timer":       func() { r.Timer("x")() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("Nop.%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) should return Nop")
	}
	reg := NewRegistry()
	if OrNop(reg) != Recorder(reg) {
		t.Error("OrNop should pass a non-nil recorder through")
	}
}

func TestDefaultInstallAndRestore(t *testing.T) {
	if _, ok := Default().(Nop); !ok {
		t.Fatalf("default recorder should start as Nop, got %T", Default())
	}
	reg := NewRegistry()
	SetDefault(reg)
	defer SetDefault(nil)
	Default().Count("x", 3)
	if got := reg.Counter("x"); got != 3 {
		t.Errorf("counter after SetDefault = %d, want 3", got)
	}
	SetDefault(nil)
	if _, ok := Default().(Nop); !ok {
		t.Error("SetDefault(nil) should restore Nop")
	}
}

func TestRegistryAccumulatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	r.Count("b.count", 2)
	r.Count("b.count", 3)
	r.Count("a.count", 1)
	r.Gauge("g", 1.5)
	r.Gauge("g", 2.5) // last write wins
	r.PhaseTime("load", 10*units.Nanosecond)
	r.PhaseTime("load", 5*units.Nanosecond)
	r.PhaseEnergy("edge", 7)
	r.Timer("t")()

	if got := r.Counter("b.count"); got != 5 {
		t.Errorf("Counter(b.count) = %d, want 5", got)
	}
	if got := r.GaugeValue("g"); got != 2.5 {
		t.Errorf("GaugeValue(g) = %v, want 2.5", got)
	}
	if got := r.Phase("load"); got != 15*units.Nanosecond {
		t.Errorf("Phase(load) = %v, want 15ns", got)
	}
	if got := r.Energy("edge"); got != 7 {
		t.Errorf("Energy(edge) = %v, want 7", got)
	}

	s := r.Snapshot()
	wantCounters := []CounterValue{{"a.count", 1}, {"b.count", 5}}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Errorf("Snapshot counters = %v, want sorted %v", s.Counters, wantCounters)
	}
	if len(s.Timers) != 1 || s.Timers[0].Name != "t" || s.Timers[0].Seconds < 0 {
		t.Errorf("Snapshot timers = %v", s.Timers)
	}
}

// TestCatapultRoundTrip encodes a timeline and decodes it back through
// encoding/json, checking structure, unit conversion (ps → µs), and
// track ordering metadata.
func TestCatapultRoundTrip(t *testing.T) {
	var tl Timeline
	tl.Track("controller")
	tl.Track("PU 0")
	tl.Add(Span{Track: "PU 0", Name: "block", Cat: "process",
		Start: 2 * units.Microsecond, Dur: units.Microsecond,
		Args: map[string]any{"edges": 42}})
	tl.Add(Span{Track: "controller", Name: "fill", Cat: "load",
		Start: 0, Dur: 2 * units.Microsecond})

	var buf bytes.Buffer
	if err := tl.WriteCatapult(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc CatapultTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 process_name + 2 per track + 2 spans.
	if len(doc.TraceEvents) != 1+2*2+2 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	var spans []CatapultEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d X events, want 2", len(spans))
	}
	// "block" starts at 2 µs and lasts 1 µs, on the second track (tid 1).
	if spans[0].Name != "block" || spans[0].TS != 2 || spans[0].Dur == nil || *spans[0].Dur != 1 || spans[0].TID != 1 {
		t.Errorf("block span wrong: %+v", spans[0])
	}
	if spans[1].Name != "fill" || spans[1].TID != 0 {
		t.Errorf("fill span wrong: %+v", spans[1])
	}
	if tl.End() != 3*units.Microsecond {
		t.Errorf("End() = %v, want 3µs", tl.End())
	}
}

// TestArtifactEncodingDeterministic checks two artifacts built the same
// way encode to identical bytes, and that the encoding is valid JSON
// with the schema marker.
func TestArtifactEncodingDeterministic(t *testing.T) {
	build := func() *Artifact {
		a := NewArtifact("fig1", "a title", Manifest{
			Quick:    true,
			Datasets: []DatasetRef{{Name: "YT", Scale: 100, Seed: 7, FullVertices: 10, FullEdges: 20}},
		})
		a.AddMetric("mean", 1.5, "x")
		a.AddTable("main", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
		a.AddNote("note line")
		return a
	}
	var b1, b2 bytes.Buffer
	if err := build().EncodeJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().EncodeJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("identical artifacts encode differently:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc["schema"] != ArtifactSchema {
		t.Errorf("schema = %v, want %s", doc["schema"], ArtifactSchema)
	}
}

// TestArtifactAddTableCopies verifies the artifact deep-copies table
// storage, so a runner reusing its row buffers cannot corrupt an
// already-recorded table.
func TestArtifactAddTableCopies(t *testing.T) {
	a := NewArtifact("x", "t", Manifest{})
	rows := [][]string{{"v"}}
	a.AddTable("t", []string{"h"}, rows)
	rows[0][0] = "mutated"
	if a.Tables[0].Rows[0][0] != "v" {
		t.Error("AddTable did not deep-copy rows")
	}
}
