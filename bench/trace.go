package main

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// spanCapacity sizes the trace ring of a traced round. The ring holds
// the benchmark's spans and the simulator's own per-iteration phase
// spans; the largest round (sweep with its probe) records about 8200. A
// round that overflows it fails rather than report metrics from a
// partial trace.
const spanCapacity = 1 << 15

// inSpan runs fn inside an obs span named name, a child of the span ctx
// carries, and hands fn the context carrying the new span. attrs are
// alternating key, value pairs. While tracing is off the span is nil and
// costs one atomic load.
func inSpan(ctx context.Context, name string, fn func(ctx context.Context) error, attrs ...string) error {
	ctx, sp := obs.StartSpan(ctx, name, attrs...)
	defer sp.End()
	return fn(ctx)
}

// traceStats is what one round's spans contribute to the per-layer
// metrics.
type traceStats struct {
	// OpS is the summed duration of the timed op spans; CoveredS is the
	// part of it their child (stage) spans cover.
	OpS      float64 `json:"op_s"`
	CoveredS float64 `json:"covered_s"`
	// Probe totals the stage probe's spans by name.
	Probe map[string]spanTotal `json:"probe,omitempty"`
}

// spanTotal is the summed duration and edge count of n spans.
type spanTotal struct {
	Sec   float64 `json:"sec"`
	Edges int64   `json:"edges,omitempty"`
	N     int     `json:"n"`
}

// meanSec is the mean duration of the spans.
func (t spanTotal) meanSec() float64 { return ratio(t.Sec, float64(t.N)) }

// summarizeSpans reduces a round's spans to its traceStats. A span's
// phase is the name of its root: "timed" for the ops and their stages,
// "probe" for the stage probe. Only wall-clock spans count; the
// simulator's phase spans are on simulated time.
func summarizeSpans(spans []obs.TraceSpan) traceStats {
	byID := make(map[uint64]obs.TraceSpan, len(spans))
	children := map[uint64][]obs.TraceSpan{}
	for _, s := range spans {
		if s.Cat != "wall" {
			continue
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	phase := func(s obs.TraceSpan) string {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return ""
			}
			s = p
		}
		return s.Name
	}
	st := traceStats{Probe: map[string]spanTotal{}}
	for _, s := range byID {
		switch phase(s) {
		case "timed":
			if s.Name == "op" {
				st.OpS += s.DurUS / 1e6
				st.CoveredS += coveredSec(children[s.ID])
			}
		case "probe":
			t := st.Probe[s.Name]
			t.Sec += s.DurUS / 1e6
			t.N++
			if e, err := strconv.ParseInt(s.Attrs["edges"], 10, 64); err == nil {
				t.Edges += e
			}
			st.Probe[s.Name] = t
		}
	}
	return st
}

// coveredSec is the time the spans cover, overlaps counted once. For a
// span's children it is what the span's self time excludes.
func coveredSec(spans []obs.TraceSpan) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	var total, lo, hi float64
	for i, s := range spans {
		end := s.StartUS + s.DurUS
		switch {
		case i == 0:
			lo, hi = s.StartUS, end
		case s.StartUS > hi:
			total += hi - lo
			lo, hi = s.StartUS, end
		case end > hi:
			hi = end
		}
	}
	return (total + hi - lo) / 1e6
}
