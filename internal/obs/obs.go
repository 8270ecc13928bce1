// Package obs is the observability layer of the simulator stack:
// structured metrics (counters, gauges, per-phase simulated time,
// per-component energy, host wall-clock timers), a Chrome trace_event
// timeline exporter, and canonical machine-readable run artifacts.
//
// The package is zero-dependency (stdlib only, plus internal/units) and
// designed so that instrumented hot paths pay nothing when observation
// is disabled: the no-op Recorder performs no allocation and no
// synchronization, and every integration point accepts a nil Recorder
// and falls back to it through OrNop/Default.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/units"
)

// Recorder receives metrics from instrumented code. Implementations
// must be safe for concurrent use: the experiment harness reports from
// many worker goroutines at once.
//
// Metric names are dot-separated lowercase paths ("sim.phase.load",
// "parallel.points.completed"); phases and components use the
// simulator's own vocabulary (load/process/writeback/overhead,
// edge-memory/vertex-memory-offchip/…).
type Recorder interface {
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to v (last write wins).
	Gauge(name string, v float64)
	// PhaseTime accumulates simulated time under the named phase.
	PhaseTime(phase string, t units.Time)
	// PhaseEnergy accumulates energy under the named component.
	PhaseEnergy(component string, e units.Energy)
	// Timer starts a host wall-clock timer; calling the returned stop
	// function records the elapsed time under name.
	Timer(name string) func()
}

// Nop is the disabled Recorder: every method is a no-op, allocates
// nothing, and takes no locks. The zero value is ready to use.
type Nop struct{}

// nopStop is the shared stop function Timer returns; keeping it a
// package variable means Nop.Timer never closes over anything.
var nopStop = func() {}

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// Gauge implements Recorder.
func (Nop) Gauge(string, float64) {}

// PhaseTime implements Recorder.
func (Nop) PhaseTime(string, units.Time) {}

// PhaseEnergy implements Recorder.
func (Nop) PhaseEnergy(string, units.Energy) {}

// Timer implements Recorder.
func (Nop) Timer(string) func() { return nopStop }

// OrNop returns r, or the no-op Recorder when r is nil — the idiom
// every integration point uses so callers never branch on nil.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// defaultRec holds the process-global Recorder. It defaults to Nop and
// is swapped exactly once per process in practice (a command serving
// /metrics installs the Metrics registry at startup); the atomic makes
// mid-run swaps safe anyway. The holder struct keeps atomic.Value's concrete type constant
// across differently-typed Recorder implementations.
type recHolder struct{ r Recorder }

var defaultRec atomic.Value // of recHolder

func init() { defaultRec.Store(recHolder{Nop{}}) }

// Default returns the process-global Recorder. Library code that has no
// per-run Recorder handed to it (the worker pool, the channel
// simulation, the dynamic stores) reports here; it is a no-op unless a
// driver installed something.
func Default() Recorder {
	return defaultRec.Load().(recHolder).r
}

// SetDefault installs the process-global Recorder. A nil r restores the
// no-op.
func SetDefault(r Recorder) {
	defaultRec.Store(recHolder{OrNop(r)})
}

// Registry is an in-memory Recorder: a locked map per metric kind with
// a sorted snapshot view. It backs tests and the -json report paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	phases   map[string]units.Time
	energies map[string]units.Energy
	timers   map[string]time.Duration
	hists    map[string]*Histogram
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		phases:   map[string]units.Time{},
		energies: map[string]units.Energy{},
		timers:   map[string]time.Duration{},
		hists:    map[string]*Histogram{},
	}
}

// Count implements Recorder.
func (r *Registry) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge implements Recorder.
func (r *Registry) Gauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// PhaseTime implements Recorder.
func (r *Registry) PhaseTime(phase string, t units.Time) {
	r.mu.Lock()
	r.phases[phase] += t
	r.mu.Unlock()
}

// PhaseEnergy implements Recorder.
func (r *Registry) PhaseEnergy(component string, e units.Energy) {
	r.mu.Lock()
	r.energies[component] += e
	r.mu.Unlock()
}

// Timer implements Recorder.
func (r *Registry) Timer(name string) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		r.mu.Lock()
		r.timers[name] += d
		r.mu.Unlock()
	}
}

// Counter returns the named counter's current value.
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// GaugeValue returns the named gauge's current value.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Phase returns the accumulated simulated time of the named phase.
func (r *Registry) Phase(name string) units.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phases[name]
}

// Energy returns the accumulated energy of the named component.
func (r *Registry) Energy(name string) units.Energy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.energies[name]
}

// Snapshot is a point-in-time copy of a Registry, every section sorted
// by name for deterministic rendering.
type Snapshot struct {
	Counters   []CounterValue    `json:"counters,omitempty"`
	Gauges     []GaugeSample     `json:"gauges,omitempty"`
	Phases     []PhaseSample     `json:"phases,omitempty"`
	Energies   []EnergySample    `json:"energies,omitempty"`
	Timers     []TimerSample     `json:"timers,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSample is one gauge in a Snapshot.
type GaugeSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// PhaseSample is one phase-time accumulator in a Snapshot (picoseconds).
type PhaseSample struct {
	Name   string  `json:"name"`
	TimePS float64 `json:"time_ps"`
}

// EnergySample is one energy accumulator in a Snapshot (picojoules).
type EnergySample struct {
	Name     string  `json:"name"`
	EnergyPJ float64 `json:"energy_pj"`
}

// TimerSample is one wall-clock timer in a Snapshot.
type TimerSample struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot returns a sorted copy of everything recorded so far.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for n, v := range r.counters {
		s.Counters = append(s.Counters, CounterValue{n, v})
	}
	for n, v := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{n, v})
	}
	for n, v := range r.phases {
		s.Phases = append(s.Phases, PhaseSample{n, float64(v)})
	}
	for n, v := range r.energies {
		s.Energies = append(s.Energies, EnergySample{n, float64(v)})
	}
	for n, v := range r.timers {
		s.Timers = append(s.Timers, TimerSample{n, v.Seconds()})
	}
	for n, h := range r.hists {
		s.Histograms = append(s.Histograms, h.Sample(n))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })
	sort.Slice(s.Energies, func(i, j int) bool { return s.Energies[i].Name < s.Energies[j].Name })
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
