package algo

import (
	"fmt"
	"math"
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

// kernelTestPrograms returns every program of All() plus the two
// PageRank variants All() leaves out, run to an epsilon and warm
// started from a finished run's ranks over the first half of g's
// vertices (the rest start uniform).
func kernelTestPrograms(t *testing.T, g *graph.Graph) map[string]Program {
	t.Helper()
	progs := map[string]Program{"PR-converge": NewPageRankConverge(1e-9)}
	for _, p := range All() {
		progs[p.Name()] = p
	}
	prev, err := Run(NewPageRank(), g)
	if err != nil {
		t.Fatal(err)
	}
	progs["PR-warm"] = NewPageRank().WithWarmStart(prev.Values[:(g.NumVertices+1)/2])
	return progs
}

// weightedFor returns g, or a weighted copy of it when p needs weights.
func weightedFor(p Program, g *graph.Graph) *graph.Graph {
	if p.NeedsWeights() && !g.Weighted() {
		g = g.Clone()
		graph.AttachUniformWeights(g, 8, 99)
	}
	return g
}

// Every registered program must stream bit-identically through the
// specialized kernel, the generic ProcessEdge path, and the
// owner-computes parallel runner — values and counters. The two
// PageRank variants All() leaves out, run to an epsilon and warm
// started, go through the same kernel and are held to the same oracle.
func TestKernelVsOracle(t *testing.T) {
	for name, g := range kernelTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			for pname, p := range kernelTestPrograms(t, g) {
				t.Run(pname, func(t *testing.T) {
					if err := CheckKernelVsOracle(p, weightedFor(p, g)); err != nil {
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
// simulator's activity factors, and the kernel path's vertex passes
// (engine.go) must seed, apply and report change exactly as the
// per-vertex AccumIdentity and Apply calls do. Every program runs to
// its end on every kernelTestGraphs shape, and after each iteration
// EndIteration's result, Converged, the three counters and the bits of
// every value must match: a +0 against a −0 fails.
func TestKernelCountersPerIteration(t *testing.T) {
	graphs := kernelTestGraphs(t)
	rmat, err := graph.GenerateRMAT(256, 2048, graph.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	graphs["rmat-256"] = rmat
	for name, g := range graphs {
		for pname, p := range kernelTestPrograms(t, g) {
			gp := weightedFor(p, g)
			k, err := NewState(p, gp)
			if err != nil {
				t.Fatal(err)
			}
			o, err := NewState(p, gp)
			if err != nil {
				t.Fatal(err)
			}
			o.SetKernel(nil)
			for it := 0; !o.Done(); it++ {
				if it > o.MaxIterations() {
					t.Fatalf("%s %s: no convergence", name, pname)
				}
				k.BeginIteration()
				o.BeginIteration()
				k.ProcessEdges(gp.Edges, gp.Weights)
				o.ProcessEdges(gp.Edges, gp.Weights)
				kc, oc := k.EndIteration(), o.EndIteration()
				if kc != oc || k.Converged != o.Converged || k.Done() != o.Done() {
					t.Fatalf("%s %s iteration %d: kernel changed %v, converged %v, done %v; generic %v, %v, %v",
						name, pname, it, kc, k.Converged, k.Done(), oc, o.Converged, o.Done())
				}
				if k.EdgesProcessed != o.EdgesProcessed ||
					k.ActiveEdges != o.ActiveEdges ||
					k.UpdatedGathers != o.UpdatedGathers {
					t.Fatalf("%s %s iteration %d: kernel counters (%d, %d, %d) vs generic (%d, %d, %d)",
						name, pname, it, k.EdgesProcessed, k.ActiveEdges, k.UpdatedGathers,
						o.EdgesProcessed, o.ActiveEdges, o.UpdatedGathers)
				}
				if err := sameBits(k.Values, o.Values); err != nil {
					t.Fatalf("%s %s iteration %d: %v", name, pname, it, err)
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same float64 bit
// patterns.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("vertex %d: kernel %v (%#x), generic %v (%#x)",
				v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
	return nil
}

// fuzzWeights are the edge weights FuzzKernelVsOracle draws from: both
// zeros, subnormals of both signs, the float32 extremes and ordinary
// values, negatives included (a negative SSSP cycle never converges,
// and both paths must then fail alike).
var fuzzWeights = [16]float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), 1, 2, 0.5,
	3.25, 1e-30, -1, -0.75,
	math.MaxFloat32, 7, 1e-38, 100,
}

// decodeFuzzGraph reads a graph of 1–16 vertices and at most 64 edges
// from data: the first byte gives the vertex count and, in its top bit,
// whether edges carry weights; every following three bytes are an
// edge's source, destination and fuzzWeights index. Self-loops,
// parallel edges and isolated vertices all occur.
func decodeFuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return &graph.Graph{NumVertices: 1}
	}
	n := int(data[0]&15) + 1
	weighted := data[0]&128 != 0
	g := &graph.Graph{NumVertices: n}
	for i := 1; i+2 < min(len(data), 1+3*64); i += 3 {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(int(data[i]) % n), Dst: graph.VertexID(int(data[i+1]) % n)})
		if weighted {
			g.Weights = append(g.Weights, fuzzWeights[data[i+2]&15])
		}
	}
	if weighted && g.Weights == nil {
		g.Weights = []float32{}
	}
	return g
}

// FuzzKernelVsOracle holds Run against RunGeneric on arbitrary small
// graphs for every program of All() plus PR-converge: CheckKernelVsOracle
// must hold and the values must match bit for bit, or both runs must
// fail with the same error (weights missing, a negative SSSP cycle).
func FuzzKernelVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x83, 0, 1, 0, 1, 2, 1, 2, 0, 5, 3, 3, 2})
	f.Add([]byte{0x84, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 4, 0, 0, 12})
	f.Add([]byte{0x81, 0, 1, 10, 1, 0, 5})
	f.Add([]byte{5, 0, 1, 0, 1, 1, 0, 1, 2, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		for _, p := range append(All(), NewPageRankConverge(1e-9)) {
			want, werr := RunGeneric(p, g)
			got, gerr := Run(p, g)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("%s: kernel error %v, generic error %v", p.Name(), gerr, werr)
				}
				continue
			}
			if err := CheckKernelVsOracle(p, g); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got.Values, want.Values); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
	})
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
