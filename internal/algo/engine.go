package algo

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// State is the mutable execution state of a program on a graph: the
// canonical functional semantics every simulator (HyVE, GraphR, CPU)
// must agree with. The architecture simulators drive it block-by-block;
// Run drives it over the flat edge list. Because the model is
// synchronous, both produce identical values.
type State struct {
	Prog   Program
	Graph  *graph.Graph
	Values []float64 // current vertex values (the "source" copy)
	// Accum holds the gathered accumulators (the "destination" copy)
	// from BeginIteration to EndIteration. Between iterations its
	// contents are scratch: a kernelized min-gather or SpMV State swaps
	// it with Values, so it then holds the previous iteration's values.
	Accum  []float64
	OutDeg []uint32
	// Iteration counts completed iterations.
	Iteration int
	// EdgesProcessed counts edge traversals (messages considered).
	EdgesProcessed int64
	// ActiveEdges counts traversals whose scatter produced a message
	// (e.g. the BFS source was already reached). The architecture
	// simulators use the ratio to scale per-edge update energy.
	ActiveEdges int64
	// UpdatedGathers counts messages that actually changed the
	// destination accumulator (a min that improved, a sum of a non-zero
	// message) — the destination-write activity of the machine.
	UpdatedGathers int64
	// Converged is set by Apply sweeps that change nothing.
	Converged bool

	// kernel is the program's monomorphized edge loop (kernel.go), or
	// nil to stream through the generic interface-dispatched path.
	kernel EdgeKernel
	// pass is the vertex pass a kernelized State runs in place of one
	// AccumIdentity and one Apply call per vertex.
	pass vertexPass
	// updatedAtBegin is UpdatedGathers when the iteration began: the
	// min pass's EndIteration reads the iteration's updates from it.
	updatedAtBegin int64
	// msg, for PageRank, holds each vertex's message
	// Values[v]/OutDeg[v], computed once per iteration by
	// BeginIteration instead of once per edge; the kernel scatters from
	// it in place of Values.
	msg []float64
}

// vertexPass selects the monomorphic vertex passes of a kernelized
// State: BeginIteration seeds every accumulator and EndIteration applies
// every vertex in one loop each, with the program's own arithmetic, so
// values and the changed flag are bit for bit the per-vertex
// interface path's.
type vertexPass uint8

const (
	// passGeneric calls AccumIdentity and Apply per vertex.
	passGeneric vertexPass = iota
	// passMin is BFS, CC and SSSP: the accumulator starts as the value
	// and Apply is (acc, acc != old).
	passMin
	// passRank is PageRank: a zero accumulator, then teleport plus
	// damped mass with the epsilon test.
	passRank
	// passSum is SpMV: a zero accumulator and Apply is
	// (acc, acc != old).
	passSum
)

// NewState initializes program state on g.
func NewState(p Program, g *graph.Graph) (*State, error) {
	if p.NeedsWeights() && !g.Weighted() {
		return nil, fmt.Errorf("algo: %s needs edge weights", p.Name())
	}
	if g.NumVertices == 0 {
		return nil, graph.ErrEmptyGraph
	}
	s := &State{
		Prog:   p,
		Graph:  g,
		Values: make([]float64, g.NumVertices),
		Accum:  make([]float64, g.NumVertices),
		OutDeg: g.OutDegrees(),
	}
	for v := range s.Values {
		s.Values[v] = p.Init(graph.VertexID(v), g.NumVertices)
	}
	if kp, ok := p.(KernelProgram); ok {
		s.kernel = kp.EdgeKernel()
	}
	switch p.(type) {
	case *BFS, *CC, *SSSP:
		s.pass = passMin
	case *PageRank:
		s.pass = passRank
		s.msg = make([]float64, g.NumVertices)
	case *SpMV:
		s.pass = passSum
	}
	return s, nil
}

// SetKernel overrides the edge kernel between iterations; nil forces
// the generic interface-dispatched path, edges and vertices alike (the
// oracle the equivalence tests stream against).
func (s *State) SetKernel(k EdgeKernel) { s.kernel = k }

// Kernelized reports whether edge streaming runs through a specialized
// kernel.
func (s *State) Kernelized() bool { return s.kernel != nil }

// vertexPass returns the vertex pass this iteration runs: the
// program's on the kernel path, the generic one otherwise.
func (s *State) vertexPass() vertexPass {
	if s.kernel == nil {
		return passGeneric
	}
	return s.pass
}

// BeginIteration seeds the accumulators and, for PageRank on the kernel
// path, the per-vertex messages. Values are read-only until
// EndIteration, so each message is the quotient every out-edge would
// otherwise compute itself, bit for bit. On the kernel path the seeding
// is one pass per iteration: a copy of the values for a min-gather, a
// clear for a sum.
func (s *State) BeginIteration() {
	switch s.vertexPass() {
	case passMin:
		copy(s.Accum, s.Values)
		s.updatedAtBegin = s.UpdatedGathers
	case passRank:
		clear(s.Accum)
		for v, d := range s.OutDeg {
			if d != 0 {
				s.msg[v] = s.Values[v] / float64(d)
			}
		}
	case passSum:
		clear(s.Accum)
	default:
		for v := range s.Accum {
			s.Accum[v] = s.Prog.AccumIdentity(s.Values[v])
		}
	}
}

// ProcessEdge streams one edge: scatter from the source's *current*
// value, gather into the destination's accumulator.
func (s *State) ProcessEdge(e graph.Edge, w float32) {
	s.EdgesProcessed++
	msg, active := s.Prog.Scatter(s.Values[e.Src], int(s.OutDeg[e.Src]), w)
	if !active {
		return
	}
	s.ActiveEdges++
	next := s.Prog.Gather(s.Accum[e.Dst], msg)
	if next != s.Accum[e.Dst] {
		s.UpdatedGathers++
		s.Accum[e.Dst] = next
	}
}

// ProcessEdges streams a contiguous slice of edges (weights[i] per edge;
// nil weights mean weight 1) through the program's kernel, falling back
// to the generic ProcessEdge semantics when no kernel is set. Both paths
// produce bit-identical accumulators and counters.
func (s *State) ProcessEdges(edges []graph.Edge, weights []float32) {
	var ks KernelStats
	s.ProcessEdgesInto(&ks, edges, weights)
	s.AddStats(ks)
}

// ProcessEdgesInto streams edges like ProcessEdges but accumulates the
// edge counters into ks instead of the State, so owner-disjoint parallel
// callers can count per worker without write-sharing the State and merge
// with AddStats after their barrier, before EndIteration reads the
// counters. Accumulator writes still go to s.Accum — the
// caller must guarantee the slices' destinations are owned by exactly
// one concurrent invocation (values are only read).
func (s *State) ProcessEdgesInto(ks *KernelStats, edges []graph.Edge, weights []float32) {
	if s.kernel != nil {
		src := s.Values
		if s.msg != nil {
			src = s.msg
		}
		ks.Add(s.kernel(src, s.Accum, s.OutDeg, edges, weights))
		return
	}
	ks.Edges += int64(len(edges))
	for i, e := range edges {
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		msg, active := s.Prog.Scatter(s.Values[e.Src], int(s.OutDeg[e.Src]), w)
		if !active {
			continue
		}
		ks.Active++
		next := s.Prog.Gather(s.Accum[e.Dst], msg)
		if next != s.Accum[e.Dst] {
			ks.Updated++
			s.Accum[e.Dst] = next
		}
	}
}

// AddStats folds merged kernel counters into the run totals — the
// post-barrier step of a parallel sweep that counted per worker through
// ProcessEdgesInto.
func (s *State) AddStats(ks KernelStats) {
	s.EdgesProcessed += ks.Edges
	s.ActiveEdges += ks.Active
	s.UpdatedGathers += ks.Updated
}

// EndIteration applies the accumulators and reports whether any vertex
// changed. On the kernel path a min-gather (BFS, CC, SSSP) applies by
// swapping Values and Accum, and reads changed from the iteration's
// UpdatedGathers: every counted update lowered its accumulator strictly
// below the value it was seeded with, and an accumulator no update
// touched still holds that value's bits. So the updates of edges
// streamed through ProcessEdgesInto must be folded in with AddStats
// before EndIteration, as every runner does after its step barrier.
func (s *State) EndIteration() (changed bool) {
	switch s.vertexPass() {
	case passMin:
		changed = s.UpdatedGathers != s.updatedAtBegin
		s.Values, s.Accum = s.Accum, s.Values
	case passRank:
		changed = s.Prog.(*PageRank).applyAll(s.Values, s.Accum)
	case passSum:
		changed = !slices.Equal(s.Accum, s.Values)
		s.Values, s.Accum = s.Accum, s.Values
	default:
		n := s.Graph.NumVertices
		for v := range s.Values {
			nv, ch := s.Prog.Apply(s.Values[v], s.Accum[v], n)
			s.Values[v] = nv
			changed = changed || ch
		}
	}
	s.Iteration++
	if !changed {
		s.Converged = true
	}
	return changed
}

// Done reports whether the program should stop: budget exhausted or
// converged.
func (s *State) Done() bool {
	if fixed := s.Prog.FixedIterations(); fixed > 0 {
		return s.Iteration >= fixed
	}
	return s.Converged
}

// RunIteration performs one full synchronous sweep over the flat edge
// list, through the kernel when the program provides one.
func (s *State) RunIteration() {
	s.BeginIteration()
	s.ProcessEdges(s.Graph.Edges, s.Graph.Weights)
	s.EndIteration()
}

// MaxIterations bounds convergence loops; a synchronous min-propagation
// needs at most |V| sweeps, so exceeding it indicates a broken program.
// Fixed-budget programs get their full budget regardless of graph size,
// and geometric-convergence programs (epsilon-bounded PageRank) get a
// floor large enough for any practical epsilon (0.85^512 ≈ 10⁻³⁶).
func (s *State) MaxIterations() int {
	bound := s.Graph.NumVertices + 1
	if bound < 512 {
		bound = 512
	}
	if fixed := s.Prog.FixedIterations(); fixed > bound {
		bound = fixed
	}
	return bound
}

// Result is the outcome of a completed run.
type Result struct {
	Values         []float64
	Iterations     int
	EdgesProcessed int64
	ActiveEdges    int64
	UpdatedGathers int64
	// VerticesProcessed counts vertex visits (vertex-centric: scattering
	// vertices; edge-centric: every vertex, every iteration).
	VerticesProcessed int64
	Converged         bool
}

// ActivityRatio is the fraction of traversals that scattered a message.
func (r *Result) ActivityRatio() float64 {
	if r.EdgesProcessed == 0 {
		return 0
	}
	return float64(r.ActiveEdges) / float64(r.EdgesProcessed)
}

// UpdateRatio is the fraction of traversals that wrote the destination.
func (r *Result) UpdateRatio() float64 {
	if r.EdgesProcessed == 0 {
		return 0
	}
	return float64(r.UpdatedGathers) / float64(r.EdgesProcessed)
}

// Run executes p on g to completion over the flat edge list and returns
// the result, streaming through the program's kernel when it provides
// one. This is the functional oracle for the architecture simulators.
func Run(p Program, g *graph.Graph) (*Result, error) {
	return runEngine(p, g, false)
}

// RunGeneric is Run with the kernel disabled: every edge goes through
// the interface-dispatched Scatter/Gather path. It exists as the oracle
// the kernels are checked against.
func RunGeneric(p Program, g *graph.Graph) (*Result, error) {
	return runEngine(p, g, true)
}

func runEngine(p Program, g *graph.Graph, forceGeneric bool) (*Result, error) {
	s, err := NewState(p, g)
	if err != nil {
		return nil, err
	}
	if forceGeneric {
		s.SetKernel(nil)
	}
	for !s.Done() {
		if s.Iteration > s.MaxIterations() {
			return nil, fmt.Errorf("algo: %s failed to converge after %d iterations", p.Name(), s.Iteration)
		}
		s.RunIteration()
	}
	return &Result{
		Values:         s.Values,
		Iterations:     s.Iteration,
		EdgesProcessed: s.EdgesProcessed,
		ActiveEdges:    s.ActiveEdges,
		UpdatedGathers: s.UpdatedGathers,
		Converged:      s.Converged,
	}, nil
}
