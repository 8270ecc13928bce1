// Dynamic graphs: the paper's §5 working flow. A web-like graph evolves
// under a stream of edge/vertex additions and deletions (45/45/5/5); the
// HyVE layout absorbs them in O(1) through reserved slack space, while
// the GraphR adjacency-block layout must rewrite a block per change.
// Each request is priced on the device models by the memory operations
// the layout performed for it, through the same code as Fig. 20.
// After the stream, PageRank still runs correctly on the evolved graph.
//
//	go run ./examples/dynamic-graphs
package main

import (
	"fmt"
	"log"

	"repro/internal/algo"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	g, err := graph.GenerateRMAT(50_000, 400_000, graph.DefaultRMAT, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	const numRequests = 300_000
	reqs, err := dynamic.GenerateRequests(g, numRequests, dynamic.PaperMix, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request stream: %d requests (45%% add-edge, 45%% delete-edge, 5%% add-vertex, 5%% delete-vertex)\n\n", len(reqs))

	// HyVE layout: P² blocks with 30% reserved slack.
	asg, err := partition.NewHashed(g.NumVertices, 16)
	if err != nil {
		log.Fatal(err)
	}
	hyve, err := dynamic.NewHyVEStore(g, asg, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	hc, err := experiments.PriceHyVE(hyve, reqs)
	if err != nil {
		log.Fatal(err)
	}
	ht := hc.Total()
	fmt.Printf("HyVE layout:   %.2f M edges/s (%d changes priced at %v)\n",
		hc.MillionEdgesPerSecond(), ht.Changed, ht.Time)
	fmt.Printf("               %d overflow extents linked, %d last edges moved, %d re-preprocessing passes\n",
		hyve.Overflows, hyve.MovedLastEdge, hyve.Repreprocess)

	// GraphR layout: dense 8×8 adjacency blocks, rewritten per change.
	gr, err := dynamic.NewGraphRStore(g, 8)
	if err != nil {
		log.Fatal(err)
	}
	gc, err := experiments.PriceGraphR(gr, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GraphR layout: %.3f M edges/s (%d block rewrites priced at %v)\n",
		gc.MillionEdgesPerSecond(), gr.Rewrites, gc.Total().Time)
	fmt.Printf("\nHyVE/GraphR throughput: %.2fx (paper: 8.04x)\n",
		hc.MillionEdgesPerSecond()/gc.MillionEdgesPerSecond())

	// The evolved graph is still a graph: run PageRank on it.
	evolved := &graph.Graph{NumVertices: hyve.NumVertices(), Edges: hyve.Edges()}
	if err := evolved.Validate(); err != nil {
		log.Fatal(err)
	}
	r, err := algo.Run(algo.NewPageRank(), evolved)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPageRank on the evolved graph (%d vertices, %d edges): %d iterations ✓\n",
		evolved.NumVertices, evolved.NumEdges(), r.Iterations)
}
