package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Trace generation: the HyVE controller's off-chip access stream for one
// iteration of Algorithm 2, with byte-exact addresses against the §3.4
// memory images. This is the "address mapping" role of the hybrid memory
// controller (§3.3) made inspectable: every edge-memory block read and
// every vertex-memory interval transfer, in schedule order.
//
// The trace exists for validation and analysis: the tests replay it and
// require its traffic to reconcile exactly with the cost simulator's
// Detail counters, and its addresses to stay inside the images.

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
// visit for every off-chip access, in issue order. The schedule is
// identical to the cost simulator's; the addresses come from the built
// memory images.
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
	vtxOffsets := vertexImageOffsets(s.asg, s.valueBytes)

	n := s.cfg.NumPUs
	pn := s.p / n
	edgeSize := int64(graph.EdgeBytes)
	if s.w.Program.NeedsWeights() {
		edgeSize += 4
	}

	emitVertex := func(kind AccessKind, interval, pu, sbx, sby, step int) {
		visit(Access{
			Kind: kind, Addr: vtxOffsets[interval] + VertexImageHeaderBytes,
			Bytes: s.intervalBytes(interval), PU: pu, Interval: interval,
			SuperBlockX: sbx, SuperBlockY: sby, Step: step,
		})
	}

	for y := 0; y < pn; y++ {
		for x := 0; x < pn; x++ {
			if (s.cfg.DataSharing && x == 0) || !s.cfg.DataSharing {
				for i := 0; i < n; i++ {
					emitVertex(DestLoad, y*n+i, i, x, y, -1)
				}
			}
			if s.cfg.DataSharing {
				for i := 0; i < n; i++ {
					emitVertex(SourceLoad, x*n+i, i, x, y, -1)
				}
			}
			for step := 0; step < n; step++ {
				if !s.cfg.DataSharing {
					for p := 0; p < n; p++ {
						emitVertex(SourceLoad, x*n+(p+step)%n, p, x, y, step)
					}
				}
				for p := 0; p < n; p++ {
					src := x*n + (p+step)%n
					dst := y*n + p
					blkLen := s.blockLen(src, dst)
					if blkLen == 0 {
						continue
					}
					visit(Access{
						Kind: EdgeBlockRead,
						Addr: edgeOffsets[src*s.p+dst] + EdgeImageHeaderBytes,
						// The weighted edge size accounts for the weight
						// stream the image stores alongside (weights are
						// modeled, not serialized, in the image).
						Bytes: int64(blkLen) * edgeSize,
						PU:    p, BlockX: src, BlockY: dst,
						SuperBlockX: x, SuperBlockY: y, Step: step,
					})
				}
			}
			if !s.cfg.DataSharing || x == pn-1 {
				for i := 0; i < n; i++ {
					emitVertex(DestWriteback, y*n+i, i, x, y, -1)
				}
			}
		}
	}
	return nil
}

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
