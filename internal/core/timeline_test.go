package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
)

// walkInput is a workload for the walk tests and the per-PU SRAM that
// sets its P (0 keeps each configuration's own).
type walkInput struct {
	name string
	w    Workload
	sram int64
}

// walkInputs returns testWorkload's R-MAT graph and two shapes the walk
// meets rarely, both at P = 16 for 8-byte values (a 1 KiB SRAM section
// holds 64 of them): 1003 vertices, which 16 intervals do not divide,
// and 1024 vertices whose edges all join intervals 0–7, so super blocks
// (0,1), (1,0) and (1,1) and every step in them are empty.
func walkInputs(t *testing.T, progName string) []walkInput {
	t.Helper()
	base := testWorkload(t, progName)
	ragged, err := graph.GenerateRMAT(1003, 8000, graph.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	corner := &graph.Graph{NumVertices: 1024}
	for a := 0; a < 64; a++ {
		for b := 0; b < 8; b++ {
			corner.Edges = append(corner.Edges, graph.Edge{
				Src: graph.VertexID(16*a + b),
				Dst: graph.VertexID(16*((5*a+b)%64) + (a+b)%8),
			})
		}
	}
	inputs := []walkInput{{"rmat", base, 0}}
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{{"ragged", ragged}, {"corner", corner}} {
		if base.Program.NeedsWeights() {
			graph.AttachUniformWeights(g.g, 4, 55)
		}
		inputs = append(inputs, walkInput{g.name,
			Workload{DatasetName: g.name, Graph: g.g, Program: base.Program}, 1024})
	}
	return inputs
}

// TestTimelineMatchesIterationCost holds BuildTimeline's clock against
// the cost walk: the timeline's last span must end exactly where the
// walk's running clock ends the iteration.
func TestTimelineMatchesIterationCost(t *testing.T) {
	for _, in := range walkInputs(t, "PR") {
		for _, cfg := range []Config{HyVE(), HyVEOpt(), SRAMDRAM()} {
			if in.sram > 0 {
				cfg.SRAMBytes = in.sram
			}
			tl, err := BuildTimeline(cfg, in.w)
			if err != nil {
				t.Fatalf("BuildTimeline(%s, %s): %v", cfg.Name, in.name, err)
			}
			s, err := newSim(cfg, in.w)
			if err != nil {
				t.Fatal(err)
			}
			if in.sram > 0 && s.p != 16 {
				t.Fatalf("%s %s: P = %d, want 16", cfg.Name, in.name, s.p)
			}
			if want, _, _ := s.iterationCost(nil); tl.End() != want {
				t.Errorf("%s %s: timeline ends at %v, the walk at %v", cfg.Name, in.name, tl.End(), want)
			}
		}
	}
}

// TestTimelineTracks checks the expected lanes exist per configuration:
// PU tracks always, a router track only with data sharing, bank tracks
// only with power gating (ungated configs get one edge-memory lane).
func TestTimelineTracks(t *testing.T) {
	w := testWorkload(t, "PR")

	has := func(tracks []string, name string) bool {
		for _, tr := range tracks {
			if tr == name {
				return true
			}
		}
		return false
	}
	countPrefix := func(tracks []string, prefix string) int {
		n := 0
		for _, tr := range tracks {
			if strings.HasPrefix(tr, prefix) {
				n++
			}
		}
		return n
	}

	plain, err := BuildTimeline(HyVE(), w)
	if err != nil {
		t.Fatal(err)
	}
	tracks := plain.Tracks()
	cfg := HyVE()
	for p := 0; p < cfg.NumPUs; p++ {
		if !has(tracks, fmt.Sprintf("PU %d", p)) {
			t.Errorf("HyVE timeline missing track PU %d", p)
		}
	}
	if has(tracks, "router") {
		t.Error("router track present without data sharing")
	}
	if countPrefix(tracks, "edge-bank ") != 0 || !has(tracks, "edge-memory") {
		t.Errorf("ungated config should have one edge-memory lane, got %v", tracks)
	}

	opt, err := BuildTimeline(HyVEOpt(), w)
	if err != nil {
		t.Fatal(err)
	}
	tracks = opt.Tracks()
	if !has(tracks, "router") {
		t.Error("HyVE-opt timeline missing router track")
	}
	if countPrefix(tracks, "edge-bank ") == 0 {
		t.Errorf("gated config has no bank tracks: %v", tracks)
	}

	// Every span must lie within the iteration and have non-negative
	// duration; bank awake windows may linger only up to the clamp.
	end := opt.End()
	for _, s := range opt.Spans() {
		if s.Dur < 0 || s.Start < 0 || s.End() > end {
			t.Errorf("span %q on %s out of range: [%v, %v] within [0, %v]",
				s.Name, s.Track, s.Start, s.End(), end)
		}
	}
}

// TestTimelineRejectsNoSRAM mirrors the tracer's constraint: without the
// on-chip hierarchy there is no per-PU schedule to render.
func TestTimelineRejectsNoSRAM(t *testing.T) {
	w := testWorkload(t, "PR")
	if _, err := BuildTimeline(AccDRAM(), w); err == nil {
		t.Error("BuildTimeline accepted a config without on-chip SRAM")
	}
}
