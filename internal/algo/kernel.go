package algo

import (
	"math"

	"repro/internal/graph"
)

// This file holds the monomorphized edge-streaming kernels: specialized
// inner loops for each registered program that eliminate the two
// interface-method calls (Scatter, Gather) the generic State.ProcessEdge
// path pays per edge. A kernel must be observationally identical to the
// generic path — bit-identical accumulator contents and identical
// edge/active/updated counters on any edge slice — which the kernel
// equivalence tests and the check harness's kernel-vs-oracle invariant
// enforce against the generic path as oracle.
//
// Kernels read vertex values and write accumulators through raw slices,
// so they compose with every execution strategy: the flat Run loop, the
// blocked Algorithm 2 schedule, and the owner-disjoint block-parallel
// runners (each destination interval's accumulators are written by
// exactly one goroutine, and values are read-only during a sweep).

// KernelStats are the edge-counter deltas produced by streaming a slice
// of edges: the same three counters State tracks, returned by value so
// parallel callers can accumulate per worker and merge after a barrier.
type KernelStats struct {
	// Edges counts edge traversals (every edge in the slice).
	Edges int64
	// Active counts traversals whose scatter produced a message.
	Active int64
	// Updated counts messages that changed the destination accumulator.
	Updated int64
}

// Add folds another invocation's counters into ks.
func (ks *KernelStats) Add(o KernelStats) {
	ks.Edges += o.Edges
	ks.Active += o.Active
	ks.Updated += o.Updated
}

// EdgeKernel streams one contiguous slice of edges: for each edge,
// scatter from src[e.Src] (outDeg[e.Src] and weights[i] as the program
// requires; nil weights mean weight 1) and gather into accum[e.Dst].
// src is the vertex values, except for PageRank, whose State passes the
// per-vertex messages it computes once per iteration. The kernel owns
// no state — all the slices belong to the caller — and must preserve
// the generic path's exact float semantics: same operations, same
// rounding, same update test.
type EdgeKernel func(src, accum []float64, outDeg []uint32, edges []graph.Edge, weights []float32) KernelStats

// KernelProgram is implemented by programs that provide a specialized
// edge kernel. NewState picks the kernel up automatically; the generic
// ProcessEdge path remains available as fallback and oracle
// (State.SetKernel(nil) forces it).
type KernelProgram interface {
	Program
	EdgeKernel() EdgeKernel
}

// EdgeKernel implements KernelProgram: sum-gather of the per-source
// messages src/outdeg.
func (p *PageRank) EdgeKernel() EdgeKernel { return rankSumKernel }

// EdgeKernel implements KernelProgram: min-gather of src+1.
func (b *BFS) EdgeKernel() EdgeKernel { return minGatherHopKernel }

// EdgeKernel implements KernelProgram: min-gather of the source label.
func (c *CC) EdgeKernel() EdgeKernel { return minGatherLabelKernel }

// EdgeKernel implements KernelProgram: min-gather of src+w.
func (s *SSSP) EdgeKernel() EdgeKernel { return minGatherWeightedKernel }

// EdgeKernel implements KernelProgram: sum-gather of src·w.
func (m *SpMV) EdgeKernel() EdgeKernel { return sumGatherWeightedKernel }

// rankSumKernel is PageRank's inner loop: msgs[v] is the rank mass
// src/outdeg a vertex with out-edges sends along each of them, computed
// once per iteration by State.BeginIteration. Every edge is active: the
// generic Scatter suppresses only sources of out-degree 0, and an
// edge's source has out-degree ≥ 1 because outDeg (the graph's
// OutDegrees) counts that edge. The update test mirrors the generic
// path exactly: a gather counts as an update iff the float sum moved
// the accumulator (adding a denormal-small or zero message may not).
func rankSumKernel(msgs, accum []float64, _ []uint32, edges []graph.Edge, _ []float32) KernelStats {
	n := int64(len(edges))
	st := KernelStats{Edges: n, Active: n}
	for _, e := range edges {
		acc := accum[e.Dst]
		next := acc + msgs[e.Src]
		if next != acc {
			st.Updated++
			accum[e.Dst] = next
		}
	}
	return st
}

// minGatherHopKernel is BFS's inner loop: unreached sources scatter
// nothing, reached ones scatter level+1, min-gather. `msg < acc` is the
// branch form of `math.Min(acc, msg) != acc` for the non-NaN values BFS
// produces (levels and +Inf), including the ±0 edge cases: Min(-0, +0)
// is -0, which compares equal to +0, so neither form updates.
func minGatherHopKernel(values, accum []float64, _ []uint32, edges []graph.Edge, _ []float32) KernelStats {
	st := KernelStats{Edges: int64(len(edges))}
	for _, e := range edges {
		src := values[e.Src]
		if math.IsInf(src, 1) {
			continue
		}
		st.Active++
		msg := src + 1
		if msg < accum[e.Dst] {
			st.Updated++
			accum[e.Dst] = msg
		}
	}
	return st
}

// minGatherLabelKernel is CC's inner loop: every source scatters its
// label, min-gather.
func minGatherLabelKernel(values, accum []float64, _ []uint32, edges []graph.Edge, _ []float32) KernelStats {
	n := int64(len(edges))
	st := KernelStats{Edges: n, Active: n}
	for _, e := range edges {
		msg := values[e.Src]
		if msg < accum[e.Dst] {
			st.Updated++
			accum[e.Dst] = msg
		}
	}
	return st
}

// minGatherWeightedKernel is SSSP's inner loop: reached sources scatter
// dist+w, min-gather. A nil weight slice means unit weights, which is
// exactly the BFS relaxation.
func minGatherWeightedKernel(values, accum []float64, outDeg []uint32, edges []graph.Edge, weights []float32) KernelStats {
	if weights == nil {
		return minGatherHopKernel(values, accum, outDeg, edges, nil)
	}
	st := KernelStats{Edges: int64(len(edges))}
	for i, e := range edges {
		src := values[e.Src]
		if math.IsInf(src, 1) {
			continue
		}
		st.Active++
		msg := src + float64(weights[i])
		if msg < accum[e.Dst] {
			st.Updated++
			accum[e.Dst] = msg
		}
	}
	return st
}

// sumGatherWeightedKernel is SpMV's inner loop: every source scatters
// src·w, sum-gather. The explicit float64 conversion on the product pins
// the intermediate rounding so no fused multiply-add can diverge from
// the generic path (which rounds at Scatter's return).
func sumGatherWeightedKernel(values, accum []float64, _ []uint32, edges []graph.Edge, weights []float32) KernelStats {
	n := int64(len(edges))
	st := KernelStats{Edges: n, Active: n}
	for i, e := range edges {
		w := float64(1)
		if weights != nil {
			w = float64(weights[i])
		}
		msg := float64(values[e.Src] * w)
		acc := accum[e.Dst]
		next := acc + msg
		if next != acc {
			st.Updated++
			accum[e.Dst] = next
		}
	}
	return st
}
