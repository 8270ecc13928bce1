package repro

// Micro-benchmarks for the load-bearing substrate operations
// (generation, including each Table 2 instance in
// BenchmarkDatasetGenerate and the R-MAT pick on one lane and on two in
// lockstep, BenchmarkRMATPick; the flat functional run of every Table 2
// dataset × program that a cache-off sweep point pays for,
// BenchmarkFunctionalRun; a prepared container's load against
// regeneration, each followed by the count pass a point runs; the grid
// build of the edge walks and that count-only pass, BenchmarkBlockOffsets;
// GraphR's 8×8 blocks, grouped by one sort of block keys: the occupancy
// count behind Table 1, BenchmarkBlockOccupancy; Fig. 20's two store
// loads, BenchmarkGraphRStoreBuild and BenchmarkHyVEStoreBuild; the cost
// walk of a warm point, up to TW's 102,400 blocks,
// BenchmarkSimulateHyVEOptPR; GraphR's crossbar emulation; dynamic
// updates, whose replays pay each edge's and block's first lookup in
// the stores' sorted bases; a point's canonical digest,
// BenchmarkPointDigest, and one warm /point answered from the result
// cache through an in-process service, BenchmarkServedHit). End-to-end
// numbers — every paper experiment, sweeps, the service — come from the
// repository benchmark under bench/.
//
// Run everything with:
//
//	go test -bench=. -benchmem -run '^$' .

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/partition"
	"repro/internal/point"
	"repro/internal/serve"
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

// BenchmarkRMATPick times the R-MAT pick apart from the fill, on TW's
// quadrant parameters at 16 levels: with 65,536 vertices every pick is
// accepted, so the fill only stores one edge per pick. One 64Ki-edge
// chunk fills on one lane; two chunks fill as one pair, their streams
// stepped in lockstep. ns/pick is the time per edge.
func BenchmarkRMATPick(b *testing.B) {
	tw, err := graph.DatasetByName("TW")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		chunks int
	}{{"one-lane", 1}, {"two-lane", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			picks := bc.chunks << 16
			for i := 0; i < b.N; i++ {
				if _, err := graph.GenerateRMATWorkers(1<<16, picks, tw.RMAT, uint64(i+1), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*picks), "ns/pick")
		})
	}
}

// BenchmarkDatasetGenerate generates each Table 2 instance on one
// worker, as a fresh process does before its first point. Unlike the
// 65,536-vertex graphs above, no dataset's vertex count is a power of
// two, so picks are rejected: AS accepts 98% of them, the others
// 76–81%.
func BenchmarkDatasetGenerate(b *testing.B) {
	for _, d := range graph.Datasets {
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.GenerateRMATWorkers(d.GenVertices(), d.GenEdges(), d.RMAT, d.Seed, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.GenEdges()), "edges/op")
		})
	}
}

// BenchmarkGraphLoadV2 compares the two ways a point can start: generate
// the graph, or load it from a prepared v2 container (mmap), each
// followed by the block-offset count core.NewMachine prices from — a
// point builds no grid. The load side's allocs/op is the zero-copy pin:
// it must stay O(1) in |E|, not O(edges).
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
	if err := graph.WriteV2(f, g, 11); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("generate+offsets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gg, err := graph.GenerateRMAT(65_536, 524_288, graph.DefaultRMAT, 11)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.BlockOffsets(gg, asg, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.NumEdges()), "edges/op")
	})
	b.Run("load+offsets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := graph.OpenV2(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.BlockOffsets(c.Graph(), asg, 0); err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(g.NumEdges()), "edges/op")
	})
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

// BenchmarkBlockOffsets is the count-only pass core.NewMachine prices
// from: BuildParallel's histogram pass with no scatter and no per-edge
// id array. P = 32 takes the power-of-two mask path, P = 24 the modulo.
func BenchmarkBlockOffsets(b *testing.B) {
	g := benchGraph(b)
	for _, p := range []int{32, 24} {
		asg, err := partition.NewHashed(g.NumVertices, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.BlockOffsets(g, asg, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumEdges()), "edges/op")
		})
	}
}

// BenchmarkBlockOccupancy counts each Table 2 instance's non-empty 8×8
// blocks, as Table 1 does. ComputeOccupancy memoizes on the edge array,
// so every iteration counts through a fresh graph over the same edges.
func BenchmarkBlockOccupancy(b *testing.B) {
	for _, d := range graph.Datasets {
		g, err := d.Load()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh := &graph.Graph{NumVertices: g.NumVertices, Edges: g.Edges}
				if _, err := partition.ComputeOccupancy(fresh, 8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumEdges()), "edges/op")
		})
	}
}

// BenchmarkGraphRStoreBuild is half of Fig. 20's untimed set-up: YT
// loaded into GraphR's 8×8 block directory.
func BenchmarkGraphRStoreBuild(b *testing.B) {
	g := loadDataset(b, "YT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamic.NewGraphRStore(g, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}

// BenchmarkHyVEStoreBuild is the other half: YT laid out in Fig. 20's
// 16² slack blocks with its sorted index.
func BenchmarkHyVEStoreBuild(b *testing.B) {
	g := loadDataset(b, "YT")
	asg, err := partition.NewHashed(g.NumVertices, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamic.NewHyVEStore(g, asg, 0.3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}

func loadDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	d, err := graph.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := d.Load()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFunctionalRun runs each paper program to completion on each
// Table 2 instance through algo.Run, the flat functional run behind
// core.FunctionalSummary: a cache-off sweep pays for it once per
// dataset × program. The instance and its weighted sibling are built
// before the timer.
func BenchmarkFunctionalRun(b *testing.B) {
	for _, d := range graph.Datasets {
		for _, p := range algo.All() {
			w, err := core.WorkloadFor(d, p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(d.Name+"/"+p.Name(), func(b *testing.B) {
				var edges int64
				for i := 0; i < b.N; i++ {
					r, err := algo.Run(w.Program, w.Graph)
					if err != nil {
						b.Fatal(err)
					}
					edges = r.EdgesProcessed
				}
				b.ReportMetric(float64(edges), "edges/op")
			})
		}
	}
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

// BenchmarkSimulateHyVEOptPR assembles a machine and runs the cost
// model with warm memos: the block offsets and the functional summary
// are memoized on the graph by an untimed first run, so each op times
// the assembly and the walk over the (P/N)² super blocks, as a warm
// sweep point does. The rmat sub-benchmark prices 8² blocks; YT under
// hyve-opt prices 16², and TW's P = 320 prices 102,400 blocks per
// configuration.
func BenchmarkSimulateHyVEOptPR(b *testing.B) {
	g := benchGraph(b)
	type simCase struct {
		name string
		cfg  core.Config
		w    core.Workload
	}
	rmat := core.Workload{DatasetName: "bench", Graph: g, Program: algo.NewPageRank(), Iterations: 10}
	cases := []simCase{{"rmat/hyve-opt", core.HyVEOpt(), rmat}}
	for _, pt := range []point.Spec{
		{Dataset: "YT", Config: "hyve-opt"}, {Dataset: "TW", Config: "hyve"},
		{Dataset: "TW", Config: "hyve-opt"}, {Dataset: "TW", Config: "sd"},
	} {
		pt.Algo = "PR"
		cfg, w, err := pt.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, simCase{pt.Dataset + "/" + pt.Config, cfg, w})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if _, err := core.Simulate(c.cfg, c.w); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Simulate(c.cfg, c.w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageRankCrossbar runs PageRank through GraphR's bit-sliced
// crossbar emulation at 16 bits with 4-bit cells, the ablation-precision
// path.
func BenchmarkPageRankCrossbar(b *testing.B) {
	g := benchGraph(b)
	q, err := graphr.NewQuantizer(16, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graphr.PageRankCrossbar(g, q, 0.85, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
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

// BenchmarkPointDigest digests YT/PR/hyve-opt, as every cached
// submission does before its lookup. The graph's content digest is
// memoized on the instance, so this times the field serialization and
// its one hash.
func BenchmarkPointDigest(b *testing.B) {
	cfg, w, err := point.Spec{Dataset: "YT", Algo: "PR", Config: "hyve-opt"}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cache.PointDigest(cfg, w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.PointDigest(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedHit times one warm /point for YT/PR/hyve-opt through
// an in-process service on a loopback connection: the request's parse,
// admission, digest and memory hit, and its body on the wire. The client
// side of the round trip is included.
func BenchmarkServedHit(b *testing.B) {
	srv := serve.New(serve.Config{Sched: cache.New(cache.Config{}), Rate: 1e6, Burst: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	req := []byte(`{"dataset":"YT","algo":"PR","config":"hyve-opt"}`)
	hit := func() {
		resp, err := client.Post(ts.URL+"/point", "application/json", bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	hit() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
