package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RMATParams configures the recursive-matrix (R-MAT / Kronecker)
// generator. A, B, C, D are the quadrant probabilities; natural graphs
// such as the paper's social-network datasets are well modeled by the
// canonical skewed setting (0.57, 0.19, 0.19, 0.05).
type RMATParams struct {
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities per recursion level to
	// avoid the artificial self-similarity of pure R-MAT. 0 disables.
	Noise float64
}

// DefaultRMAT is the Graph500-style parameterization used for the
// synthetic stand-ins of the paper's natural graphs.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.05}

// Validate checks that the quadrant probabilities form a distribution.
func (p RMATParams) Validate() error {
	sum := p.A + p.B + p.C + p.D
	// Written so that NaN, which fails every comparison, fails the
	// check: rmatPick's thresholds must be finite to never decrease.
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("graph: RMAT quadrant probabilities sum to %v, want 1", sum)
	}
	for _, q := range []float64{p.A, p.B, p.C, p.D} {
		if q < 0 {
			return fmt.Errorf("graph: negative RMAT quadrant probability %v", q)
		}
	}
	if !(p.Noise >= 0 && p.Noise < 0.5) {
		return fmt.Errorf("graph: RMAT noise %v out of [0, 0.5)", p.Noise)
	}
	return nil
}

// checkSizes refuses what the random generators cannot produce: no
// vertices, a negative edge count, or more vertices than a 32-bit
// VertexID can name, whose ids would be silently truncated.
func checkSizes(numVertices, numEdges int) error {
	if numVertices <= 0 {
		return ErrEmptyGraph
	}
	if uint64(numVertices) > 1<<32 {
		return fmt.Errorf("graph: %d vertices exceed 1<<32, the most a 32-bit VertexID can name", numVertices)
	}
	if numEdges < 0 {
		return fmt.Errorf("graph: negative edge count %d", numEdges)
	}
	return nil
}

// rmatChunkEdges is the unit of parallel R-MAT generation: the edge
// array is cut into fixed chunks and each chunk is filled from its own
// splitmix64-derived RNG stream. The output is therefore a pure function
// of (sizes, params, seed) — independent of worker count and of the
// order chunks are claimed — and rejection sampling for non-power-of-two
// vertex counts stays confined to the chunk whose stream it consumes.
// The chunk size is part of the stream definition: changing it changes
// every generated graph (pinned by TestGenerateRMATGolden).
const rmatChunkEdges = 1 << 16

// GenerateRMAT produces a directed graph with numVertices vertices
// (rounded up internally to a power of two for quadrant recursion, then
// mapped back down) and numEdges edges drawn from the R-MAT distribution.
// Self-loops and duplicate edges are kept, matching the raw SNAP edge
// lists the paper streams. The output is deterministic in seed and
// generated chunk-parallel across all CPUs; see GenerateRMATWorkers.
// More than 1<<32 vertices, the most a VertexID can name, is an error.
func GenerateRMAT(numVertices, numEdges int, p RMATParams, seed uint64) (*Graph, error) {
	return GenerateRMATWorkers(numVertices, numEdges, p, seed, 0)
}

// GenerateRMATWorkers is GenerateRMAT with an explicit worker count
// (≤0 means one per CPU). The edge array is byte-identical at any
// worker count: each rmatChunkEdges-sized chunk c draws from its own
// RNG seeded with SplitMix64(seed ^ c·golden), so parallelism only
// changes which goroutine fills which disjoint slice of the output.
func GenerateRMATWorkers(numVertices, numEdges int, p RMATParams, seed uint64, workers int) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkSizes(numVertices, numEdges); err != nil {
		return nil, err
	}
	levels := 0
	for (1 << levels) < numVertices {
		levels++
	}
	g := &Graph{NumVertices: numVertices, Edges: make([]Edge, numEdges)}
	chunks := (numEdges + rmatChunkEdges - 1) / rmatChunkEdges
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	fill := func(c int) {
		lo := c * rmatChunkEdges
		hi := min(lo+rmatChunkEdges, numEdges)
		rng := NewRNG(SplitMix64(seed ^ uint64(c)*0x9E3779B97F4A7C15))
		for i := lo; i < hi; i++ {
			for {
				src, dst := rmatPick(rng, levels, p)
				// Rejection keeps the quadrant distribution intact for
				// vertex counts that are not powers of two.
				if src < numVertices && dst < numVertices {
					g.Edges[i] = Edge{Src: VertexID(src), Dst: VertexID(dst)}
					break
				}
			}
		}
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fill(c)
		}
		return g, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fill(c)
			}
		}()
	}
	wg.Wait()
	return g, nil
}

// rmatPick draws one edge of a 2^levels-vertex R-MAT graph from rng's
// stream. Each level takes an optional noise draw that scales A and B,
// then a uniform draw u over the level's quadrant mass a+b+c+d, and
// picks the quadrant whose prefix-sum interval holds u: [0, a)
// top-left, [a, a+b) top-right (dst bit), [a+b, a+b+c) bottom-left
// (src bit), the rest bottom-right (both bits).
//
// This is the hot loop of every generated graph. It keeps the xorshift
// state in a local and stores it back once per pick, and it picks the
// quadrant without branches: Validate admits only non-negative, finite
// quadrant masses, so the thresholds a ≤ a+b ≤ a+b+c never decrease,
// the src bit is u ≥ a+b and the dst bit is the parity of the three
// thresholds u reached. Every floating-point expression is the one the
// switch form (rmatPickReference in gen_test.go) evaluates, in the same
// order, so the two produce the same stream bit for bit.
func rmatPick(rng *RNG, levels int, p RMATParams) (src, dst int) {
	x := rng.state
	for l := 0; l < levels; l++ {
		a, b, c := p.A, p.B, p.C
		if p.Noise > 0 {
			// Symmetric multiplicative noise per level.
			x = xorshift(x)
			n := 1 + p.Noise*(2*unitFloat(x)-1)
			a *= n
			b *= n
			// Renormalization is implicit: thresholds below compare the
			// running prefix sums against a fresh uniform draw.
		}
		x = xorshift(x)
		u := unitFloat(x) * (a + b + c + p.D)
		t0 := reached(u, a)
		t1 := reached(u, a+b)
		t2 := reached(u, a+b+c)
		src = src<<1 | t1
		dst = dst<<1 | (t0 ^ t1 ^ t2)
	}
	rng.state = x
	return src, dst
}

// reached is 1 if u ≥ t and 0 otherwise; it compiles to a flag set, not
// a branch.
func reached(u, t float64) int {
	if u >= t {
		return 1
	}
	return 0
}

// GenerateUniform produces a directed Erdős–Rényi-style graph with
// exactly numEdges uniformly random edges. It is the control workload
// for experiments that separate skew effects from size effects. Like
// GenerateRMAT, it refuses more than 1<<32 vertices.
func GenerateUniform(numVertices, numEdges int, seed uint64) (*Graph, error) {
	if err := checkSizes(numVertices, numEdges); err != nil {
		return nil, err
	}
	rng := NewRNG(seed)
	g := &Graph{NumVertices: numVertices, Edges: make([]Edge, numEdges)}
	for i := range g.Edges {
		g.Edges[i] = Edge{
			Src: VertexID(rng.Intn(numVertices)),
			Dst: VertexID(rng.Intn(numVertices)),
		}
	}
	return g, nil
}

// GenerateChain produces a path graph 0→1→…→n-1: the minimal connected
// workload, useful for exact-answer algorithm tests (BFS depth = index).
func GenerateChain(numVertices int) (*Graph, error) {
	if numVertices <= 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{NumVertices: numVertices, Edges: make([]Edge, 0, numVertices-1)}
	for v := 0; v+1 < numVertices; v++ {
		g.Edges = append(g.Edges, Edge{Src: VertexID(v), Dst: VertexID(v + 1)})
	}
	return g, nil
}

// AttachUniformWeights adds deterministic pseudo-random edge weights in
// (0, maxWeight] to g, for SSSP and SpMV workloads. It mutates g, so it
// must run before g is shared; WithUniformWeights is the sharing-safe
// form.
func AttachUniformWeights(g *Graph, maxWeight float32, seed uint64) {
	g.Weights = uniformWeights(len(g.Edges), maxWeight, seed)
}

func uniformWeights(n int, maxWeight float32, seed uint64) []float32 {
	rng := NewRNG(seed)
	w := make([]float32, n)
	for i := range w {
		w[i] = maxWeight * float32(1-rng.Float64())
	}
	return w
}
