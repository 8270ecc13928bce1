package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Flight recorder: a fixed-size ring of recent structured events —
// point started/finished/panicked/timed out, cache hit/miss, fault
// aborts — that is cheap enough to leave always on. When something goes
// wrong (a worker panic, a conformance point timeout) the ring is the
// last N things the process did, dumped automatically to the installed
// writer and on demand via the /debug/flight endpoint.

// FlightEvent is one entry in the ring.
type FlightEvent struct {
	Seq  uint64            `json:"seq"`
	Wall time.Time         `json:"wall"`
	Kind string            `json:"kind"` // "parallel.point", "cache.hit", "check.timeout", …
	Name string            `json:"name"` // the subject: an index, digest, seed, experiment id
	Attr map[string]string `json:"attr,omitempty"`
}

// FlightRing is a bounded ring of FlightEvents, safe for concurrent
// recording and dumping. The zero value is unusable; use NewFlightRing.
type FlightRing struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int
	seq  uint64
}

// DefaultFlightEvents is the capacity of the process-global ring.
const DefaultFlightEvents = 512

// NewFlightRing returns an empty ring holding up to capacity events
// (DefaultFlightEvents when capacity <= 0).
func NewFlightRing(capacity int) *FlightRing {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRing{buf: make([]FlightEvent, 0, capacity)}
}

// Record appends one event; attrs are alternating key, value pairs.
func (f *FlightRing) Record(kind, name string, attrs ...string) {
	e := FlightEvent{Wall: time.Now(), Kind: kind, Name: name, Attr: attrPairs(attrs)}
	f.mu.Lock()
	f.seq++
	e.Seq = f.seq
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next] = e
		f.next = (f.next + 1) % len(f.buf)
	}
	f.mu.Unlock()
}

// Snapshot returns the buffered events, oldest first.
func (f *FlightRing) Snapshot() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Total returns how many events were ever recorded (>= len(Snapshot())).
func (f *FlightRing) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// WriteJSONL writes one JSON object per buffered event, oldest first.
func (f *FlightRing) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range f.Snapshot() {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("obs: encoding flight event: %w", err)
		}
	}
	return nil
}

// --- global ring ---------------------------------------------------------

var (
	flightOnce sync.Once
	flightRing *FlightRing

	flightDumpMu sync.Mutex
	flightDumpW  io.Writer
)

// Flight returns the process-global flight ring (always on; recording
// is one short critical section per coarse-grained event).
func Flight() *FlightRing {
	flightOnce.Do(func() { flightRing = NewFlightRing(DefaultFlightEvents) })
	return flightRing
}

// SetFlightDump installs the writer DumpFlight targets (nil disables
// automatic dumps — the default, so library tests that provoke panics
// on purpose stay quiet). Drivers install os.Stderr at startup.
func SetFlightDump(w io.Writer) {
	flightDumpMu.Lock()
	flightDumpW = w
	flightDumpMu.Unlock()
}

// DumpFlight writes the global ring to the installed dump writer with a
// reason header — called automatically on worker panic and conformance
// point timeout. A nil writer makes it a no-op.
func DumpFlight(reason string) {
	flightDumpMu.Lock()
	w := flightDumpW
	defer flightDumpMu.Unlock()
	if w == nil {
		return
	}
	ring := Flight()
	fmt.Fprintf(w, "--- flight recorder dump (%s): %d buffered of %d recorded events ---\n",
		reason, len(ring.Snapshot()), ring.Total())
	_ = ring.WriteJSONL(w)
	fmt.Fprintf(w, "--- end flight recorder dump ---\n")
}

// FlightHandler serves the global ring as JSONL — the /debug/flight
// endpoint beside /debug/pprof and /metrics.
func FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = Flight().WriteJSONL(w)
	})
}

// TraceHandler serves the global trace buffer: JSONL by default,
// Chrome trace_event with ?format=catapult — the /debug/trace endpoint.
// While tracing is disabled it answers 404 with a hint.
func TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := Tracing()
		if buf == nil {
			http.Error(w, "span tracing disabled (start the driver with -pprof to enable)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "catapult" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = buf.WriteCatapult(w, "hyve")
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = buf.WriteJSONL(w)
	})
}
