// Package algo implements the graph algorithms of the paper's evaluation
// — PageRank, BFS, Connected Components, SSSP, and SpMV — as edge-centric
// Gather-Apply-Scatter programs (paper §2.1, Algorithm 1), plus
// independent reference implementations used to verify every simulator's
// functional output.
//
// The execution model is synchronous (Jacobi-style): scatter reads the
// previous iteration's values, gather accumulates into a separate
// destination array, apply merges after all edges are streamed. This is
// exactly the semantics HyVE's hardware enforces — "the vertex data in
// the source interval will not be modified during processing, so there
// will be no data dependent hazard" (§4.2) — and it makes results
// independent of block traversal order, which the tests exploit.
package algo

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Program is an edge-centric GAS program over float64 vertex state.
type Program interface {
	// Name is the paper's short code: PR, BFS, CC, SSSP, SpMV.
	Name() string
	// ValueBytes is the storage width of one vertex value in the vertex
	// memories; it drives memory traffic ("the bit width of a vertex in
	// the PR algorithm is wider than the other two algorithms", §7.3.1).
	ValueBytes() int
	// MVMBased reports whether the algorithm is matrix-vector-multiply
	// shaped (PR, SpMV) — GraphR's crossbars execute those with one MVM
	// per block, everything else row-by-row (paper Eq. 11 vs. 12).
	MVMBased() bool
	// NeedsWeights reports whether edges must carry weights.
	NeedsWeights() bool
	// FixedIterations is the iteration budget; 0 means run to
	// convergence (the paper fixes PR at 10 and converges BFS/CC).
	FixedIterations() int
	// Init gives vertex v's initial value.
	Init(v graph.VertexID, numVertices int) float64
	// AccumIdentity seeds the destination accumulator for an iteration,
	// given the vertex's current value (0 for sums, the current value
	// for min-propagation).
	AccumIdentity(current float64) float64
	// Scatter produces the message src sends along an edge of weight w;
	// active=false suppresses the update (e.g. an unreached BFS source).
	Scatter(srcVal float64, srcOutDeg int, w float32) (msg float64, active bool)
	// Gather folds a message into the accumulator.
	Gather(acc, msg float64) float64
	// Apply merges the gathered accumulator into the vertex value after
	// the iteration and reports whether the value changed.
	Apply(old, acc float64, numVertices int) (newVal float64, changed bool)
}

// Unreached marks BFS/SSSP/CC-style "infinity".
var Unreached = math.Inf(1)

// ByName returns the program with the paper's short code.
func ByName(name string) (Program, error) {
	switch name {
	case "PR":
		return NewPageRank(), nil
	case "BFS":
		return NewBFS(0), nil
	case "CC":
		return NewCC(), nil
	case "SSSP":
		return NewSSSP(0), nil
	case "SpMV":
		return NewSpMV(), nil
	}
	return nil, fmt.Errorf("algo: unknown program %q", name)
}

// All returns the paper's five programs (BFS/SSSP rooted at vertex 0).
func All() []Program {
	return []Program{NewPageRank(), NewBFS(0), NewCC(), NewSSSP(0), NewSpMV()}
}

// PageRank is the paper's PR workload: damping 0.85, 10 iterations
// (§7.1: "the number of iterations for PR is set to 10").
type PageRank struct {
	Damping    float64
	Iterations int
	// Epsilon is the per-vertex change threshold; with a fixed iteration
	// budget it only reports convergence, with Iterations == 0 it stops
	// the run (NewPageRankConverge).
	Epsilon float64
	// Warm, when non-nil, seeds vertex values from a previous solution
	// instead of the uniform distribution — the §5 evolving-graph use
	// case, where ranks are recomputed after each update batch and the
	// old fixed point is an excellent starting guess.
	Warm []float64
}

// NewPageRank returns the paper's configuration.
func NewPageRank() *PageRank {
	return &PageRank{Damping: 0.85, Iterations: 10, Epsilon: 1e-12}
}

// NewPageRankConverge returns a PageRank that iterates to an epsilon
// fixed point instead of a fixed budget.
func NewPageRankConverge(eps float64) *PageRank {
	return &PageRank{Damping: 0.85, Epsilon: eps}
}

// WithWarmStart returns a copy of p seeded from prev (per-vertex ranks;
// vertices beyond len(prev) start uniform).
func (p *PageRank) WithWarmStart(prev []float64) *PageRank {
	c := *p
	c.Warm = append([]float64(nil), prev...)
	return &c
}

// Name implements Program.
func (p *PageRank) Name() string { return "PR" }

// ValueBytes implements Program: a double-precision rank.
func (p *PageRank) ValueBytes() int { return 8 }

// MVMBased implements Program.
func (p *PageRank) MVMBased() bool { return true }

// NeedsWeights implements Program.
func (p *PageRank) NeedsWeights() bool { return false }

// FixedIterations implements Program.
func (p *PageRank) FixedIterations() int { return p.Iterations }

// Init implements Program: uniform rank, or the warm-start seed.
func (p *PageRank) Init(v graph.VertexID, n int) float64 {
	if p.Warm != nil && int(v) < len(p.Warm) {
		return p.Warm[v]
	}
	return 1 / float64(n)
}

// AccumIdentity implements Program.
func (p *PageRank) AccumIdentity(float64) float64 { return 0 }

// Scatter implements Program: rank mass spread over out-edges.
func (p *PageRank) Scatter(src float64, outDeg int, _ float32) (float64, bool) {
	if outDeg == 0 {
		return 0, false
	}
	return src / float64(outDeg), true
}

// Gather implements Program.
func (p *PageRank) Gather(acc, msg float64) float64 { return acc + msg }

// Apply implements Program: teleport plus damped mass. The explicit
// conversion pins the product's rounding, as applyAll's does, so no
// fused multiply-add can make the two differ.
func (p *PageRank) Apply(old, acc float64, n int) (float64, bool) {
	next := (1-p.Damping)/float64(n) + float64(p.Damping*acc)
	return next, math.Abs(next-old) > p.Epsilon
}

// applyAll is Apply over every vertex in one loop, values[v] taking
// the place of old and accum[v] of acc; it reports whether any vertex
// changed. The teleport term is the one Apply computes, hoisted.
func (p *PageRank) applyAll(values, accum []float64) (changed bool) {
	d, eps := p.Damping, p.Epsilon
	teleport := (1 - d) / float64(len(values))
	for v, acc := range accum {
		next := teleport + float64(d*acc)
		if math.Abs(next-values[v]) > eps {
			changed = true
		}
		values[v] = next
	}
	return changed
}

// BFS computes hop distance from Root, edge-centric style: every
// iteration streams all edges and relaxes level(dst) against
// level(src)+1, converging when a full sweep changes nothing. The paper
// deliberately uses this general form rather than a queue-based BFS
// (§7.1: "we do not apply a specific design for certain graph
// algorithms").
type BFS struct {
	Root graph.VertexID
}

// NewBFS returns a BFS rooted at root.
func NewBFS(root graph.VertexID) *BFS { return &BFS{Root: root} }

// Name implements Program.
func (b *BFS) Name() string { return "BFS" }

// ValueBytes implements Program: a 32-bit level.
func (b *BFS) ValueBytes() int { return 4 }

// MVMBased implements Program.
func (b *BFS) MVMBased() bool { return false }

// NeedsWeights implements Program.
func (b *BFS) NeedsWeights() bool { return false }

// FixedIterations implements Program: converge.
func (b *BFS) FixedIterations() int { return 0 }

// Init implements Program.
func (b *BFS) Init(v graph.VertexID, _ int) float64 {
	if v == b.Root {
		return 0
	}
	return Unreached
}

// AccumIdentity implements Program: relax against the current level.
func (b *BFS) AccumIdentity(current float64) float64 { return current }

// Scatter implements Program.
func (b *BFS) Scatter(src float64, _ int, _ float32) (float64, bool) {
	if math.IsInf(src, 1) {
		return 0, false
	}
	return src + 1, true
}

// Gather implements Program: minimum level.
func (b *BFS) Gather(acc, msg float64) float64 { return math.Min(acc, msg) }

// Apply implements Program.
func (b *BFS) Apply(old, acc float64, _ int) (float64, bool) {
	return acc, acc != old
}

// CC computes connected components by label propagation over directed
// edges (matching the paper's simulator, which streams each directed
// edge once per iteration): every vertex starts labeled with its own id
// and adopts the minimum label seen from its in-neighbors.
type CC struct{}

// NewCC returns a connected-components program.
func NewCC() *CC { return &CC{} }

// Name implements Program.
func (c *CC) Name() string { return "CC" }

// ValueBytes implements Program: a 32-bit label.
func (c *CC) ValueBytes() int { return 4 }

// MVMBased implements Program.
func (c *CC) MVMBased() bool { return false }

// NeedsWeights implements Program.
func (c *CC) NeedsWeights() bool { return false }

// FixedIterations implements Program: converge.
func (c *CC) FixedIterations() int { return 0 }

// Init implements Program.
func (c *CC) Init(v graph.VertexID, _ int) float64 { return float64(v) }

// AccumIdentity implements Program.
func (c *CC) AccumIdentity(current float64) float64 { return current }

// Scatter implements Program.
func (c *CC) Scatter(src float64, _ int, _ float32) (float64, bool) { return src, true }

// Gather implements Program.
func (c *CC) Gather(acc, msg float64) float64 { return math.Min(acc, msg) }

// Apply implements Program.
func (c *CC) Apply(old, acc float64, _ int) (float64, bool) {
	return acc, acc != old
}

// SSSP computes single-source shortest paths (Bellman-Ford relaxation
// over edge sweeps) from Root using edge weights.
type SSSP struct {
	Root graph.VertexID
}

// NewSSSP returns an SSSP program rooted at root.
func NewSSSP(root graph.VertexID) *SSSP { return &SSSP{Root: root} }

// Name implements Program.
func (s *SSSP) Name() string { return "SSSP" }

// ValueBytes implements Program: a 32-bit distance.
func (s *SSSP) ValueBytes() int { return 4 }

// MVMBased implements Program.
func (s *SSSP) MVMBased() bool { return false }

// NeedsWeights implements Program.
func (s *SSSP) NeedsWeights() bool { return true }

// FixedIterations implements Program: converge.
func (s *SSSP) FixedIterations() int { return 0 }

// Init implements Program.
func (s *SSSP) Init(v graph.VertexID, _ int) float64 {
	if v == s.Root {
		return 0
	}
	return Unreached
}

// AccumIdentity implements Program.
func (s *SSSP) AccumIdentity(current float64) float64 { return current }

// Scatter implements Program.
func (s *SSSP) Scatter(src float64, _ int, w float32) (float64, bool) {
	if math.IsInf(src, 1) {
		return 0, false
	}
	return src + float64(w), true
}

// Gather implements Program.
func (s *SSSP) Gather(acc, msg float64) float64 { return math.Min(acc, msg) }

// Apply implements Program.
func (s *SSSP) Apply(old, acc float64, _ int) (float64, bool) {
	return acc, acc != old
}

// SpMV computes one sparse matrix-vector product y = Aᵀx over the edge
// list (x initialized to per-vertex seed values), GraphR's fifth
// workload. A single sweep; no convergence loop.
type SpMV struct{}

// NewSpMV returns an SpMV program.
func NewSpMV() *SpMV { return &SpMV{} }

// Name implements Program.
func (m *SpMV) Name() string { return "SpMV" }

// ValueBytes implements Program.
func (m *SpMV) ValueBytes() int { return 8 }

// MVMBased implements Program.
func (m *SpMV) MVMBased() bool { return true }

// NeedsWeights implements Program.
func (m *SpMV) NeedsWeights() bool { return true }

// FixedIterations implements Program: exactly one sweep.
func (m *SpMV) FixedIterations() int { return 1 }

// Init implements Program: a deterministic non-degenerate input vector.
func (m *SpMV) Init(v graph.VertexID, _ int) float64 { return 1 + float64(v%7) }

// AccumIdentity implements Program.
func (m *SpMV) AccumIdentity(float64) float64 { return 0 }

// Scatter implements Program. The explicit conversion pins the
// product's rounding so no downstream fused multiply-add can make this
// path diverge from the monomorphized kernel.
func (m *SpMV) Scatter(src float64, _ int, w float32) (float64, bool) {
	return float64(src * float64(w)), true
}

// Gather implements Program.
func (m *SpMV) Gather(acc, msg float64) float64 { return acc + msg }

// Apply implements Program.
func (m *SpMV) Apply(old, acc float64, _ int) (float64, bool) {
	return acc, acc != old
}
