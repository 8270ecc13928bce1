package core

import (
	"testing"

	"repro/internal/graph"
)

func collectTrace(t *testing.T, cfg Config, w Workload) []Access {
	t.Helper()
	var trace []Access
	if err := TraceIteration(cfg, w, func(a Access) { trace = append(trace, a) }); err != nil {
		t.Fatal(err)
	}
	return trace
}

// The trace's edge traffic must cover every block exactly once per
// iteration and reconcile byte-for-byte with the cost simulator.
func TestTraceCoversEveryBlockOnce(t *testing.T) {
	w := testWorkload(t, "PR")
	cfg := HyVEOpt()
	trace := collectTrace(t, cfg, w)
	r := simulate(t, cfg, w)

	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	grid, p := m.Grid(), m.P()
	seen := make(map[[2]int]int)
	var edgeBytes int64
	for _, a := range trace {
		if a.Kind != EdgeBlockRead {
			continue
		}
		seen[[2]int{a.BlockX, a.BlockY}]++
		edgeBytes += a.Bytes
	}
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			want := 0
			if grid.BlockLen(x, y) > 0 {
				want = 1
			}
			if got := seen[[2]int{x, y}]; got != want {
				t.Fatalf("block (%d,%d) read %d times, want %d", x, y, got, want)
			}
		}
	}
	if edgeBytes != r.Detail.EdgeBytes {
		t.Errorf("trace edge bytes %d != simulator %d", edgeBytes, r.Detail.EdgeBytes)
	}
}

// Vertex traffic in the trace must reconcile with the Detail counters,
// for both sharing modes.
func TestTraceVertexTrafficMatchesSimulator(t *testing.T) {
	w := testWorkload(t, "PR")
	for _, sharing := range []bool{false, true} {
		cfg := HyVE()
		cfg.DataSharing = sharing
		trace := collectTrace(t, cfg, w)
		r := simulate(t, cfg, w)
		var src, dst, wb int64
		for _, a := range trace {
			switch a.Kind {
			case SourceLoad:
				src += a.Bytes
			case DestLoad:
				dst += a.Bytes
			case DestWriteback:
				wb += a.Bytes
			}
		}
		if src != r.Detail.SrcLoadBytes {
			t.Errorf("sharing=%v: trace src bytes %d != simulator %d", sharing, src, r.Detail.SrcLoadBytes)
		}
		if dst != r.Detail.DstLoadBytes {
			t.Errorf("sharing=%v: trace dst bytes %d != simulator %d", sharing, dst, r.Detail.DstLoadBytes)
		}
		if wb != r.Detail.WritebackBytes {
			t.Errorf("sharing=%v: trace writeback bytes %d != simulator %d", sharing, wb, r.Detail.WritebackBytes)
		}
		if sharing && src >= r.Detail.SrcLoadBytes*2 {
			t.Error("sharing trace should carry less source traffic")
		}
	}
}

// Every traced address must fall inside its image.
func TestTraceAddressesInBounds(t *testing.T) {
	w := testWorkload(t, "BFS")
	cfg := HyVEOpt()
	s, err := newSim(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	edgeImg, _ := BuildEdgeImage(s.grid)
	vtxOffsets := vertexImageOffsets(s.grid.Assigner, s.valueBytes)
	vtxSize := vtxOffsets[len(vtxOffsets)-1]
	for _, a := range collectTrace(t, cfg, w) {
		switch a.Kind {
		case EdgeBlockRead:
			// The image stores 8-byte edges; a weighted program's trace
			// bytes may exceed the image span, but unweighted BFS must
			// fit exactly.
			if a.Addr < 0 || a.Addr+a.Bytes > int64(len(edgeImg)) {
				t.Fatalf("edge access [%d,%d) outside image of %d bytes", a.Addr, a.Addr+a.Bytes, len(edgeImg))
			}
		default:
			if a.Addr < 0 || a.Addr+a.Bytes > vtxSize {
				t.Fatalf("%v access [%d,%d) outside vertex image of %d bytes", a.Kind, a.Addr, a.Addr+a.Bytes, vtxSize)
			}
		}
	}
}

// With data sharing, each source interval is loaded once per super
// block; without, N times (once per step).
func TestTraceSourceLoadMultiplicity(t *testing.T) {
	w := testWorkload(t, "CC")
	countLoads := func(sharing bool) map[int]int {
		cfg := HyVE()
		cfg.DataSharing = sharing
		counts := map[int]int{}
		for _, a := range collectTrace(t, cfg, w) {
			if a.Kind == SourceLoad {
				counts[a.Interval]++
			}
		}
		return counts
	}
	shared := countLoads(true)
	unshared := countLoads(false)
	for interval, n := range shared {
		if unshared[interval] != n*8 {
			t.Fatalf("interval %d: %d unshared loads vs %d shared (want 8x)", interval, unshared[interval], n)
		}
	}
}

func TestTraceRejectsNoSRAMConfigs(t *testing.T) {
	w := testWorkload(t, "PR")
	if err := TraceIteration(AccDRAM(), w, func(Access) {}); err == nil {
		t.Error("tracing a hierarchy without on-chip memory should fail")
	}
	bad := HyVE()
	bad.NumPUs = 0
	if err := TraceIteration(bad, w, func(Access) {}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAccessKindStrings(t *testing.T) {
	for _, k := range []AccessKind{EdgeBlockRead, SourceLoad, DestLoad, DestWriteback} {
		if k.String() == "" {
			t.Error("empty access kind name")
		}
	}
	if AccessKind(9).String() == "" {
		t.Error("unknown kind name empty")
	}
	_ = graph.Edge{}
}

// Under the scheduled layout, the iteration's edge reads are one
// sequential sweep: every consecutive pair of block reads is contiguous
// up to the 12-byte block header.
func TestTraceEdgeStreamIsSequential(t *testing.T) {
	w := testWorkload(t, "PR")
	var cursor int64 = -1
	var jumps, steps int
	for _, a := range collectTrace(t, HyVEOpt(), w) {
		if a.Kind != EdgeBlockRead {
			continue
		}
		if cursor >= 0 {
			if a.Addr >= cursor && a.Addr-cursor <= EdgeImageHeaderBytes*2 {
				steps++
			} else {
				jumps++
			}
		}
		cursor = a.Addr + a.Bytes
	}
	if steps == 0 {
		t.Fatal("no block transitions observed")
	}
	if frac := float64(steps) / float64(steps+jumps); frac < 0.99 {
		t.Errorf("edge stream only %.1f%% sequential under the scheduled layout", 100*frac)
	}
}
