package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/units"
)

// Trace generation: the HyVE controller's off-chip access stream for one
// iteration of Algorithm 2, with byte-exact addresses against the §3.4
// memory images. This is the "address mapping" role of the hybrid memory
// controller (§3.3) made inspectable: every edge-memory block read and
// every vertex-memory interval transfer, in schedule order.
//
// The trace is not a second model of the schedule: iterationCost walks
// it and hands each access it charges to traceView, which adds the
// address. So the trace is exactly the stream the cost model priced.
// CheckResult holds it to the images (every address inside, every
// non-empty block read once and whole); the closed forms there check
// the traffic itself.

// AccessKind classifies one off-chip transaction of the controller.
type AccessKind int

// Controller access kinds.
const (
	// EdgeBlockRead streams one block from the edge memory.
	EdgeBlockRead AccessKind = iota
	// SourceLoad moves a source interval from off-chip vertex memory to
	// a PU's on-chip source section.
	SourceLoad
	// DestLoad moves a destination interval on-chip.
	DestLoad
	// DestWriteback moves a destination interval back off-chip.
	DestWriteback
)

func (k AccessKind) String() string {
	switch k {
	case EdgeBlockRead:
		return "edge-block-read"
	case SourceLoad:
		return "source-load"
	case DestLoad:
		return "dest-load"
	case DestWriteback:
		return "dest-writeback"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Access is one controller transaction.
type Access struct {
	Kind AccessKind
	// Addr is the byte address in the owning image (edge image for
	// EdgeBlockRead, vertex image otherwise).
	Addr int64
	// Bytes is the payload size (headers excluded).
	Bytes int64
	// PU is the processing unit served (-1 for broadcast/controller).
	PU int
	// Block / Interval identify the object.
	BlockX, BlockY int // EdgeBlockRead
	Interval       int // vertex transfers
	// Step and SuperBlock locate the access in the schedule.
	SuperBlockX, SuperBlockY, Step int
}

// TraceIteration walks one iteration of Algorithm 2 under cfg and calls
// visit for every off-chip access, in issue order: the cost walk's own
// accesses, with addresses from the built memory images.
func TraceIteration(cfg Config, w Workload, visit func(Access)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s, err := newSim(cfg, w)
	if err != nil {
		return err
	}
	return s.traceIteration(visit)
}

// traceIteration is TraceIteration on an assembled machine; it builds
// the machine's grid for the edge image.
func (s *machine) traceIteration(visit func(Access)) error {
	if s.onchip == nil {
		return fmt.Errorf("core: tracing requires the on-chip hierarchy (config %s has none)", s.cfg.Name)
	}
	// The production layout stores blocks in schedule order, so the
	// traced edge reads form one sequential sweep per iteration.
	_, edgeOffsets, err := BuildEdgeImageScheduled(s.edgeGrid(), s.cfg.NumPUs)
	if err != nil {
		return err
	}
	s.iterationCost(&traceView{p: s.p, edgeOffsets: edgeOffsets,
		vtxOffsets: vertexImageOffsets(s.asg, s.valueBytes), visit: visit})
	return nil
}

// traceView addresses each access the walk charges against the memory
// images and hands it to visit.
type traceView struct {
	p                       int
	edgeOffsets, vtxOffsets []int64
	visit                   func(Access)
}

func (v *traceView) access(a Access, _, _ units.Time) {
	if a.Kind == EdgeBlockRead {
		a.Addr = v.edgeOffsets[a.BlockX*v.p+a.BlockY] + EdgeImageHeaderBytes
	} else {
		a.Addr = v.vtxOffsets[a.Interval] + VertexImageHeaderBytes
	}
	v.visit(a)
}

func (*traceView) overhead(string, int, int, int, units.Time, units.Time) {}

// vertexImageOffsets computes per-interval start offsets of a vertex
// image with the given value width (BuildVertexImage uses 8-byte values;
// the trace generalizes to the program's width).
func vertexImageOffsets(asg partition.Assigner, valueBytes int) []int64 {
	p := asg.P()
	offsets := make([]int64, p+1)
	var at int64
	for i := 0; i < p; i++ {
		offsets[i] = at
		at += VertexImageHeaderBytes + int64(asg.IntervalLen(i))*int64(valueBytes)
	}
	offsets[p] = at
	return offsets
}
