package repro

// Micro-benchmarks for the load-bearing substrate operations
// (generation, container load, partitioning, simulation, dynamic
// updates). End-to-end numbers — every paper experiment, sweeps, the
// service — come from the repository benchmark under bench/.
//
// Run everything with:
//
//	go test -bench=. -benchmem -run '^$' .

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/partition"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := graph.GenerateRMAT(65_536, 524_288, graph.DefaultRMAT, 11)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkRMATGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.GenerateRMAT(65_536, 524_288, graph.DefaultRMAT, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(524_288, "edges/op")
}

// BenchmarkRMATGenerateWorkers splits the serial and chunk-parallel
// generator paths; both produce bit-identical edge streams, so the
// delta is pure scheduling.
func BenchmarkRMATGenerateWorkers(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.GenerateRMATWorkers(65_536, 524_288, graph.DefaultRMAT, 11, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(524_288, "edges/op")
		})
	}
}

// BenchmarkGraphLoadV2 compares loading a prepared v2 container (mmap,
// stored grid sections) with regenerating the same graph and rebuilding
// its grid from scratch. The load side's allocs/op is the zero-copy
// pin — it must stay O(1) in |E|, not O(edges).
func BenchmarkGraphLoadV2(b *testing.B) {
	g := benchGraph(b)
	asg, err := partition.NewHashed(g.NumVertices, 32)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.hyve2")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w, err := graph.NewV2Writer(f, g.NumVertices, g.NumEdges())
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteV2Into(w, g, 11); err != nil {
		b.Fatal(err)
	}
	if err := partition.StreamGridInto(w, g, asg, partition.StreamOptions{}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("generate+build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gg, err := graph.GenerateRMAT(65_536, 524_288, graph.DefaultRMAT, 11)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.BuildParallel(gg, asg, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.NumEdges()), "edges/op")
	})
	b.Run("load+build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := graph.OpenV2(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.BuildParallel(c.Graph(), asg, 0); err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.NumEdges()), "edges/op")
	})
}

// BenchmarkPartitionStream measures the bounded-memory grid builder:
// the in-memory single-run path and a budget small enough to spill and
// merge runs through the temp file.
func BenchmarkPartitionStream(b *testing.B) {
	g := benchGraph(b)
	asg, err := partition.NewHashed(g.NumVertices, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"in-memory", 0}, {"spill-4MiB", 4 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, closer, err := partition.StreamBuild(g, asg, partition.StreamOptions{BudgetBytes: bc.budget, TmpDir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if err := closer(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumEdges()), "edges/op")
		})
	}
}

func BenchmarkPartitionBuild(b *testing.B) {
	g := benchGraph(b)
	asg, err := partition.NewHashed(g.NumVertices, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Build(g, asg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}

func BenchmarkEdgeCentricIteration(b *testing.B) {
	g := benchGraph(b)
	s, err := algo.NewState(algo.NewPageRank(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunIteration()
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}

func BenchmarkSimulateHyVEOptPR(b *testing.B) {
	g := benchGraph(b)
	w := core.Workload{DatasetName: "bench", Graph: g, Program: algo.NewPageRank(), Iterations: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(core.HyVEOpt(), w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicReplayHyVE(b *testing.B) {
	g := benchGraph(b)
	reqs, err := dynamic.GenerateRequests(g, 100_000, dynamic.PaperMix, 5)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := partition.NewHashed(g.NumVertices, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := dynamic.NewHyVEStore(g, asg, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dynamic.Replay(s, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}

func BenchmarkDynamicReplayGraphR(b *testing.B) {
	g := benchGraph(b)
	reqs, err := dynamic.GenerateRequests(g, 100_000, dynamic.PaperMix, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := dynamic.NewGraphRStore(g, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dynamic.Replay(s, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests/op")
}
