package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
)

// TestWorkloadForSharesWeightedInstance: every weighted workload of a
// dataset is one graph, aliasing the unweighted instance's edges, with
// the digest the former clone-and-weight path produced — so on-disk
// result caches and X-Hyve-Digest values are unchanged.
func TestWorkloadForSharesWeightedInstance(t *testing.T) {
	for _, d := range graph.Datasets {
		base, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		ref := base.Clone()
		graph.AttachUniformWeights(ref, 8, d.Seed^0x5EED)
		want := graph.ContentDigest(ref)
		for _, p := range []algo.Program{algo.NewSSSP(0), algo.NewSpMV()} {
			w1, err := WorkloadFor(d, p)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := WorkloadFor(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if w1.Graph != w2.Graph {
				t.Errorf("%s/%s: two calls returned two graphs", d.Name, p.Name())
			}
			if &w1.Graph.Edges[0] != &base.Edges[0] {
				t.Errorf("%s/%s: weighted graph copies the edge array", d.Name, p.Name())
			}
			if graph.ContentDigest(w1.Graph) != want {
				t.Errorf("%s/%s: digest differs from Clone + AttachUniformWeights", d.Name, p.Name())
			}
		}
	}
}

// TestFunctionalSummaryExact: programs sharing a Name() but not a run
// get their own functional summaries on a shared graph — in either
// order and from concurrent goroutines — and every result is the bytes
// the same point gives on a fresh graph.
func TestFunctionalSummaryExact(t *testing.T) {
	gen := func() *graph.Graph {
		g, err := graph.GenerateRMAT(2048, 16384, graph.DefaultRMAT, 123)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// result may run on any goroutine, so it reports by t.Error.
	result := func(g *graph.Graph, p algo.Program) []byte {
		r, err := Simulate(HyVEOpt(), Workload{DatasetName: "test", Graph: g, Program: p})
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			return nil
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	pairs := [][2]algo.Program{
		{algo.NewPageRank(), algo.NewPageRankConverge(1e-6)},
		{algo.NewBFS(0), algo.NewBFS(7)},
	}
	var progs []algo.Program
	want := map[algo.Program][]byte{}
	for _, pair := range pairs {
		for _, p := range pair {
			progs = append(progs, p)
			want[p] = result(gen(), p)
		}
		if bytes.Equal(want[pair[0]], want[pair[1]]) {
			t.Fatalf("%s variants give equal results; the test cannot tell them apart", pair[0].Name())
		}
	}

	for _, reverse := range []bool{false, true} {
		g := gen()
		for i := range progs {
			p := progs[i]
			if reverse {
				p = progs[len(progs)-1-i]
			}
			if got := result(g, p); !bytes.Equal(got, want[p]) {
				t.Errorf("reverse=%v: %s on a shared graph differs from a fresh graph", reverse, p.Name())
			}
		}
		// Every program now hits its own memo entry.
		for _, p := range progs {
			g.Memo(functionalKey{p}, func() (any, error) {
				t.Errorf("reverse=%v: %s was not memoized", reverse, p.Name())
				return nil, nil
			})
		}
	}

	g := gen()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p algo.Program) {
			defer wg.Done()
			if got := result(g, p); !bytes.Equal(got, want[p]) {
				t.Errorf("concurrent %s on a shared graph differs from a fresh graph", p.Name())
			}
		}(progs[i%len(progs)])
	}
	wg.Wait()
}

// TestFunctionalSummaryKeysByValue: a program built separately but equal
// in every parameter shares the summary; Values are never kept.
func TestFunctionalSummaryKeysByValue(t *testing.T) {
	g, err := graph.GenerateRMAT(512, 4096, graph.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FunctionalSummary(g, algo.NewBFS(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FunctionalSummary(g, algo.NewBFS(3))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal programs did not share the memoized summary")
	}
	if a.Values != nil {
		t.Error("summary keeps the vertex values")
	}
	full, err := algo.Run(algo.NewBFS(3), g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != full.Iterations || a.EdgesProcessed != full.EdgesProcessed ||
		a.ActiveEdges != full.ActiveEdges || a.UpdatedGathers != full.UpdatedGathers || a.Converged != full.Converged {
		t.Errorf("summary %+v differs from algo.Run's counters", *a)
	}
}
