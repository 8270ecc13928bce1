package algo

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// CompareValues checks two vertex-value vectors element-wise: absolute
// difference up to tol for small magnitudes, relative above. Matching
// infinities (Unreached) compare equal. A tol of 0 demands equal
// values, with +0 equal to −0; CompareResults demands equal bits.
func CompareValues(label string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("algo: %s: %d values, want %d", label, len(got), len(want))
	}
	for v := range got {
		a, b := got[v], want[v]
		if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
			continue
		}
		diff := math.Abs(a - b)
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale > 1 {
			diff /= scale
		}
		if diff > tol || math.IsNaN(diff) {
			return fmt.Errorf("algo: %s: vertex %d: got %v, want %v (diff %g > tol %g)",
				label, v, a, b, diff, tol)
		}
	}
	return nil
}

// CompareResults demands two runs be indistinguishable: bit-identical
// values (compared by math.Float64bits, so +0 and −0 differ and a NaN
// matches only its own bit pattern) and identical iteration and
// edge/active/updated counters.
func CompareResults(label string, got, want *Result) error {
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("algo: %s: %d values, want %d", label, len(got.Values), len(want.Values))
	}
	for v, a := range got.Values {
		if b := want.Values[v]; math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("algo: %s: vertex %d: got %v (bits %#016x), want %v (bits %#016x)",
				label, v, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Errorf("algo: %s: iterations %d/converged %v, want %d/%v",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if got.EdgesProcessed != want.EdgesProcessed ||
		got.ActiveEdges != want.ActiveEdges ||
		got.UpdatedGathers != want.UpdatedGathers {
		return fmt.Errorf("algo: %s: counters (edges %d, active %d, updated %d), want (%d, %d, %d)",
			label, got.EdgesProcessed, got.ActiveEdges, got.UpdatedGathers,
			want.EdgesProcessed, want.ActiveEdges, want.UpdatedGathers)
	}
	return nil
}

// CheckKernelVsOracle holds the monomorphized kernel path against the
// generic interface-dispatched oracle: both must produce bit-identical
// values and identical counters on any graph. This is the safety net
// that lets the hot path be rewritten aggressively (kernel.go).
func CheckKernelVsOracle(p Program, g *graph.Graph) error {
	oracle, err := RunGeneric(p, g)
	if err != nil {
		return err
	}
	kernel, err := Run(p, g)
	if err != nil {
		return err
	}
	return CompareResults(p.Name()+" kernel vs generic oracle", kernel, oracle)
}

// CheckAgainstReference runs p through the edge-centric engine and
// compares its fixed point against the matching independent reference
// implementation (reference.go). This is the functional-correctness
// invariant of the conformance harness: both code paths must agree on
// every graph, not just the hand-picked test points.
func CheckAgainstReference(p Program, g *graph.Graph) error {
	r, err := Run(p, g)
	if err != nil {
		return err
	}
	switch prog := p.(type) {
	case *PageRank:
		if prog.Warm != nil {
			return fmt.Errorf("algo: reference check does not support warm-started PageRank")
		}
		want := ReferencePageRank(g, prog.Damping, r.Iterations)
		return CompareValues("PR vs reference", r.Values, want, 1e-9)
	case *BFS:
		return CompareValues("BFS vs reference", r.Values, ReferenceBFS(g, prog.Root), 0)
	case *CC:
		return CompareValues("CC vs reference", r.Values, ReferenceCC(g), 0)
	case *SSSP:
		return CompareValues("SSSP vs reference", r.Values, ReferenceSSSP(g, prog.Root), 1e-6)
	case *SpMV:
		x := make([]float64, g.NumVertices)
		for v := range x {
			x[v] = prog.Init(graph.VertexID(v), g.NumVertices)
		}
		return CompareValues("SpMV vs reference", r.Values, ReferenceSpMV(g, x), 1e-9)
	}
	return fmt.Errorf("algo: no reference implementation for %s", p.Name())
}
