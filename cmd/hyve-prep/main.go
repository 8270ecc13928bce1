// Command hyve-prep performs HyVE's one-shot preprocessing: read a graph
// (SNAP-style text edge list, a v2 container, a named dataset, or a
// synthetic generator spec), apply interval-block partitioning, and
// report layout statistics — or, with -out, act as the offline compiler
// for the zero-copy v2 container format: edge list in generation order
// and optional pre-partitioned grid sections at exactly the P a
// simulation will request (-grid auto), mmap-loadable by
// hyve-bench/hyve-sim/hyve-serve via -prep-dir.
//
// Usage:
//
//	hyve-prep -in graph.txt -p 16 -stats
//	hyve-prep -gen rmat:100000:800000 -out graph.hyve2
//	hyve-prep -dataset YT -out prep/YT.s8.hyve2 -grid auto -verify
//	hyve-prep -in prep/YT.s8.hyve2 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/point"
)

type options struct {
	in, gen, dataset string
	scale            int
	out              string
	grid             string
	config, algoName string
	budgetMB         int
	verify           bool

	p         int
	hashed    bool
	occupancy int
	stats     bool
	image     string
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input graph (.hyve2 container, otherwise a text edge list)")
	flag.StringVar(&o.gen, "gen", "", "synthetic spec: rmat:V:E[:seed] or uniform:V:E[:seed]")
	flag.StringVar(&o.dataset, "dataset", "", "named dataset instance to generate (YT, WK, AS, LJ, TW)")
	flag.IntVar(&o.scale, "scale", 0, "override the dataset's down-scale divisor (0 = dataset default, 1 = full scale)")
	flag.StringVar(&o.out, "out", "", "compile the graph into a v2 container at this path (must end in .hyve2)")
	flag.StringVar(&o.grid, "grid", "off", "v2 grid sections: off, auto (P from -config/-algo), or an explicit P")
	flag.StringVar(&o.config, "config", "hyve-opt", "accelerator config for -grid auto: "+strings.Join(point.Names(), ", "))
	flag.StringVar(&o.algoName, "algo", "PR", "program for -grid auto value sizing (PR, BFS, CC, SSSP, SpMV)")
	flag.IntVar(&o.budgetMB, "budget", 256, "streaming partition memory budget in MiB")
	flag.BoolVar(&o.verify, "verify", false, "re-open the container and verify digest and grid against a rebuild")
	flag.IntVar(&o.p, "p", 0, "number of intervals for partitioning stats (0 = skip)")
	flag.BoolVar(&o.hashed, "hashed", true, "use hashed (balanced) interval assignment")
	flag.IntVar(&o.occupancy, "occupancy", 0, "also report N-wide block occupancy (e.g. 8 for GraphR stats)")
	flag.BoolVar(&o.stats, "stats", true, "print graph and partition statistics")
	flag.StringVar(&o.image, "image", "", "write the §3.4 edge-memory byte image (blocks + headers) to this path")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.out != "" && !strings.HasSuffix(o.out, ".hyve2") {
		return fmt.Errorf("-out %q: hyve-prep writes v2 containers, which must end in .hyve2", o.out)
	}
	g, seed, ds, err := load(o)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if o.stats {
		s := graph.ComputeStats(g)
		fmt.Printf("graph: %d vertices, %d edges, avg degree %.2f, max out/in %d/%d, gini %.3f, self-loops %d\n",
			s.NumVertices, s.NumEdges, s.AvgDegree, s.MaxOutDeg, s.MaxInDeg, s.GiniOut, s.SelfLoops)
	}
	if o.p > 0 && o.p <= g.NumVertices {
		if err := partitionStats(o, g); err != nil {
			return err
		}
	}
	if o.image != "" && (o.p <= 0 || o.p > g.NumVertices) {
		return fmt.Errorf("-image needs a valid -p partition")
	}
	if o.occupancy > 0 {
		occ, err := partition.ComputeOccupancy(g, o.occupancy)
		if err != nil {
			return err
		}
		fmt.Printf("occupancy (%d-wide blocks): %d non-empty, Navg %.2f, max %d\n",
			o.occupancy, occ.NonEmpty, occ.AvgEdgesPerBlk, occ.MaxEdgesPerBlk)
	}

	if o.out != "" {
		if err := writeV2(o, g, seed, ds); err != nil {
			return err
		}
	}

	if o.verify {
		path := o.out
		if path == "" {
			path = o.in
		}
		if !strings.HasSuffix(path, ".hyve2") {
			return fmt.Errorf("-verify needs a .hyve2 container (via -out or -in)")
		}
		if err := verifyContainer(path); err != nil {
			return fmt.Errorf("verify %s: %w", path, err)
		}
		fmt.Printf("verified %s\n", path)
	}
	return nil
}

func partitionStats(o options, g *graph.Graph) error {
	var asg partition.Assigner
	var err error
	if o.hashed {
		asg, err = partition.NewHashed(g.NumVertices, o.p)
	} else {
		asg, err = partition.NewContiguous(g.NumVertices, o.p)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	grid, err := partition.Build(g, asg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	counts := grid.IntervalEdgeCounts()
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	avg := float64(g.NumEdges()) / float64(o.p)
	fmt.Printf("partition: P=%d (%d blocks), %d non-empty, built in %v (%.1f Medges/s)\n",
		o.p, o.p*o.p, grid.NonEmpty(), elapsed.Round(time.Microsecond),
		float64(g.NumEdges())/elapsed.Seconds()/1e6)
	fmt.Printf("balance: max interval %d edges vs mean %.0f (imbalance %.2fx)\n",
		max, avg, float64(max)/avg)
	if o.image != "" {
		img, _ := core.BuildEdgeImage(grid)
		if err := os.WriteFile(o.image, img, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote edge-memory image: %s (%d bytes, %d block headers)\n", o.image, len(img), o.p*o.p)
	}
	return nil
}

// gridP resolves the -grid flag to an interval count: 0 = no grid
// sections. "auto" reproduces the exact decision a simulation under
// -config/-algo will make (core.ChoosePFor), so the stored layout hits
// the prepared fast path instead of being rebuilt.
func gridP(o options, g *graph.Graph, ds *graph.Dataset) (int, error) {
	switch o.grid {
	case "", "off":
		return 0, nil
	case "auto":
		cfg, err := point.Config(o.config)
		if err != nil {
			return 0, err
		}
		prog, err := algo.ByName(o.algoName)
		if err != nil {
			return 0, err
		}
		w := core.Workload{Graph: g, Program: prog}
		if ds != nil {
			w.FullVertices, w.FullEdges = ds.FullVertices, ds.FullEdges
		}
		return core.ChoosePFor(cfg, w)
	default:
		p, err := strconv.Atoi(o.grid)
		if err != nil || p <= 0 {
			return 0, fmt.Errorf("bad -grid %q (want off, auto, or a positive P)", o.grid)
		}
		return p, nil
	}
}

func writeV2(o options, g *graph.Graph, seed uint64, ds *graph.Dataset) error {
	p, err := gridP(o, g, ds)
	if err != nil {
		return err
	}
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := graph.NewV2Writer(f, g.NumVertices, len(g.Edges))
	if err != nil {
		return err
	}
	if err := graph.WriteV2Into(w, g, seed); err != nil {
		return err
	}
	if p > 0 {
		var asg partition.Assigner
		if o.hashed {
			asg, err = partition.NewHashed(g.NumVertices, p)
		} else {
			asg, err = partition.NewContiguous(g.NumVertices, p)
		}
		if err != nil {
			return err
		}
		opt := partition.StreamOptions{BudgetBytes: int64(o.budgetMB) << 20}
		if err := partition.StreamGridInto(w, g, asg, opt); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if p > 0 {
		fmt.Printf("wrote %s (%d bytes, grid P=%d)\n", o.out, st.Size(), p)
	} else {
		fmt.Printf("wrote %s (%d bytes)\n", o.out, st.Size())
	}
	return nil
}

// verifyContainer re-opens a container with both readers and proves the
// derived sections against a from-scratch rebuild: header digest matches
// the stored edges, and the grid sections equal a fresh BuildParallel at
// the stored P (rebuilt from a clone so the prepared fast path cannot
// serve the very data being checked).
func verifyContainer(path string) error {
	c, err := graph.OpenV2(path)
	if err != nil {
		return err
	}
	defer c.Close()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	sc, err := graph.ReadV2(f, st.Size())
	if err != nil {
		return fmt.Errorf("streaming reader: %w", err)
	}
	defer sc.Close()

	g := c.Graph()
	if got := graph.ContentDigest(g); got != c.Digest() {
		return fmt.Errorf("content digest mismatch: stored %x, recomputed %x", c.Digest(), got)
	}
	if got := graph.ContentDigest(sc.Graph()); got != c.Digest() {
		return fmt.Errorf("streaming reader decoded different bytes: %x", got)
	}

	if off, edges, wts, p, contig, ok := c.GridParts(); ok {
		var asg partition.Assigner
		if contig {
			asg, err = partition.NewContiguous(g.NumVertices, p)
		} else {
			asg, err = partition.NewHashed(g.NumVertices, p)
		}
		if err != nil {
			return err
		}
		stored, err := partition.GridFromParts(asg, off, edges, wts)
		if err != nil {
			return fmt.Errorf("grid sections: %w", err)
		}
		want, err := partition.BuildParallel(g.Clone(), asg, 0)
		if err != nil {
			return err
		}
		for x := 0; x < p; x++ {
			for y := 0; y < p; y++ {
				sb, wb := stored.Block(x, y), want.Block(x, y)
				if len(sb) != len(wb) {
					return fmt.Errorf("grid block (%d,%d): %d edges, want %d", x, y, len(sb), len(wb))
				}
				for i := range wb {
					if sb[i] != wb[i] {
						return fmt.Errorf("grid block (%d,%d) edge %d: %v, want %v", x, y, i, sb[i], wb[i])
					}
				}
				swt, wwt := stored.BlockWeights(x, y), want.BlockWeights(x, y)
				if (swt == nil) != (wwt == nil) {
					return fmt.Errorf("grid block (%d,%d): weight presence mismatch", x, y)
				}
				for i := range wwt {
					if swt[i] != wwt[i] {
						return fmt.Errorf("grid block (%d,%d) weight %d: %v, want %v", x, y, i, swt[i], wwt[i])
					}
				}
			}
		}
	}
	return nil
}

// load resolves the input source. The returned seed is the generator
// provenance recorded in v2 output (0 = unknown); ds is non-nil when
// the graph is a named dataset instance.
func load(o options) (*graph.Graph, uint64, *graph.Dataset, error) {
	set := 0
	for _, s := range []string{o.in, o.gen, o.dataset} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return nil, 0, nil, fmt.Errorf("specify exactly one of -in, -gen, -dataset")
	}
	switch {
	case o.dataset != "":
		d, err := graph.DatasetByName(o.dataset)
		if err != nil {
			return nil, 0, nil, err
		}
		if o.scale > 0 {
			d.Scale = o.scale
		}
		g, err := d.Generate()
		if err != nil {
			return nil, 0, nil, err
		}
		return g, d.Seed, &d, nil
	case o.in != "":
		if strings.HasSuffix(o.in, ".hyve2") {
			c, err := graph.OpenV2(o.in)
			if err != nil {
				return nil, 0, nil, err
			}
			// Left open: the graph aliases the mapping for the rest of
			// the process (stats, re-writing, verification).
			return c.Graph(), c.Seed(), nil, nil
		}
		f, err := os.Open(o.in)
		if err != nil {
			return nil, 0, nil, err
		}
		defer f.Close()
		g, err := graph.ParseEdgeList(f)
		return g, 0, nil, err
	case o.gen != "":
		g, seed, err := generate(o.gen)
		return g, seed, nil, err
	default:
		return nil, 0, nil, fmt.Errorf("specify -in FILE, -gen SPEC, or -dataset NAME")
	}
}

func generate(spec string) (*graph.Graph, uint64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return nil, 0, fmt.Errorf("bad -gen spec %q (want kind:V:E[:seed])", spec)
	}
	v, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, fmt.Errorf("bad vertex count: %w", err)
	}
	e, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, 0, fmt.Errorf("bad edge count: %w", err)
	}
	seed := uint64(1)
	if len(parts) >= 4 {
		s, err := strconv.ParseUint(parts[3], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad seed: %w", err)
		}
		seed = s
	}
	switch parts[0] {
	case "rmat":
		g, err := graph.GenerateRMAT(v, e, graph.DefaultRMAT, seed)
		return g, seed, err
	case "uniform":
		g, err := graph.GenerateUniform(v, e, seed)
		return g, seed, err
	}
	return nil, 0, fmt.Errorf("unknown generator %q (want rmat or uniform)", parts[0])
}
