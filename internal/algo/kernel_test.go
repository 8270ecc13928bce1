package algo

import (
	"testing"

	"repro/internal/graph"
)

// kernelTestGraphs returns the corner topologies plus a seeded R-MAT —
// every shape that has historically broken edge-streaming rewrites:
// self-loops, isolated vertices, a single vertex with no edges, a single
// vertex with a self-loop, and a skewed power-law graph.
func kernelTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"rmat": rmat,
		"self-loops": {NumVertices: 4, Edges: []graph.Edge{
			{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 3},
		}},
		"isolated": {NumVertices: 6, Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		}},
		"single-vertex":   {NumVertices: 1},
		"single-selfloop": {NumVertices: 1, Edges: []graph.Edge{{Src: 0, Dst: 0}}},
	}
}

// Every registered program must stream bit-identically through the
// specialized kernel, the generic ProcessEdge path, and the
// owner-computes parallel runner — values and counters. The two
// PageRank variants All() leaves out, run to an epsilon and warm
// started, go through the same kernel and are held to the same oracle.
func TestKernelVsOracle(t *testing.T) {
	for name, g := range kernelTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			progs := map[string]Program{"PR-converge": NewPageRankConverge(1e-9)}
			for _, p := range All() {
				progs[p.Name()] = p
			}
			// Warm start from a finished run's ranks over the first half
			// of the vertices; the rest start uniform.
			prev, err := Run(NewPageRank(), g)
			if err != nil {
				t.Fatal(err)
			}
			progs["PR-warm"] = NewPageRank().WithWarmStart(prev.Values[:(g.NumVertices+1)/2])
			for pname, p := range progs {
				t.Run(pname, func(t *testing.T) {
					gp := g
					if p.NeedsWeights() && !gp.Weighted() {
						gp = gp.Clone()
						graph.AttachUniformWeights(gp, 8, 99)
					}
					if err := CheckKernelVsOracle(p, gp); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// Every paper program must actually provide a kernel — losing one would
// silently fall back to the slow generic path.
func TestAllProgramsKernelized(t *testing.T) {
	g := &graph.Graph{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}, Weights: []float32{1}}
	for _, p := range All() {
		s, err := NewState(p, g)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Kernelized() {
			t.Errorf("%s: no kernel", p.Name())
		}
		s.SetKernel(nil)
		if s.Kernelized() {
			t.Errorf("%s: SetKernel(nil) did not disable the kernel", p.Name())
		}
	}
}

// A kernel-equipped state and a generic state must agree iteration by
// iteration, not just at the fixed point — the mid-run counters feed the
// simulator's activity factors.
func TestKernelCountersPerIteration(t *testing.T) {
	g, err := graph.GenerateRMAT(256, 2048, graph.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Program{NewPageRank(), NewBFS(0), NewCC()} {
		k, err := NewState(p, g)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewState(p, g)
		if err != nil {
			t.Fatal(err)
		}
		o.SetKernel(nil)
		for it := 0; it < 5 && !k.Done(); it++ {
			k.RunIteration()
			o.RunIteration()
			if k.EdgesProcessed != o.EdgesProcessed ||
				k.ActiveEdges != o.ActiveEdges ||
				k.UpdatedGathers != o.UpdatedGathers {
				t.Fatalf("%s iteration %d: kernel counters (%d, %d, %d) vs generic (%d, %d, %d)",
					p.Name(), it, k.EdgesProcessed, k.ActiveEdges, k.UpdatedGathers,
					o.EdgesProcessed, o.ActiveEdges, o.UpdatedGathers)
			}
			if err := CompareValues(p.Name()+" per-iteration kernel vs generic", k.Values, o.Values, 0); err != nil {
				t.Fatalf("iteration %d: %v", it, err)
			}
		}
	}
}

// ProcessEdgesInto must leave the State counters untouched and report
// deltas through its stats argument only — the contract the parallel
// schedulers rely on.
func TestProcessEdgesIntoIsolatesCounters(t *testing.T) {
	g, err := graph.GenerateRMAT(128, 1024, graph.DefaultRMAT, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewState(NewPageRank(), g)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginIteration()
	var ks KernelStats
	s.ProcessEdgesInto(&ks, g.Edges, g.Weights)
	if s.EdgesProcessed != 0 || s.ActiveEdges != 0 || s.UpdatedGathers != 0 {
		t.Fatalf("State counters mutated: (%d, %d, %d)", s.EdgesProcessed, s.ActiveEdges, s.UpdatedGathers)
	}
	if ks.Edges != int64(len(g.Edges)) {
		t.Fatalf("stats saw %d edges, want %d", ks.Edges, len(g.Edges))
	}
	s.AddStats(ks)
	if s.EdgesProcessed != ks.Edges {
		t.Fatalf("AddStats did not merge: %d vs %d", s.EdgesProcessed, ks.Edges)
	}
}
