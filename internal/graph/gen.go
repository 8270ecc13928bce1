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
	// check: the pick's thresholds must be finite to never decrease.
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
// A worker claims two consecutive chunks at a time and steps their
// streams in lockstep (see fillPair).
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
	edges := g.Edges
	t := newRMATTable(p)
	chunks := (numEdges + rmatChunkEdges - 1) / rmatChunkEdges
	// lane returns chunk c's edge range [i, hi) and its stream's state;
	// past the last chunk the range is empty.
	lane := func(c int) (i, hi int, x uint64) {
		i = c * rmatChunkEdges
		return i, min(i+rmatChunkEdges, numEdges), NewRNG(SplitMix64(seed ^ uint64(c)*0x9E3779B97F4A7C15)).state
	}
	// Rejection keeps the quadrant distribution intact for vertex counts
	// that are not powers of two. A lane writes every pick to its next
	// slot and moves past the slot only when both ids are below
	// numVertices, so the lane's next pick overwrites a rejected one.
	fillAlone := func(i, hi int, x uint64) {
		for i < hi {
			var src, dst int
			src, dst, x = t.pick(x, levels)
			edges[i] = Edge{Src: VertexID(src), Dst: VertexID(dst)}
			i += accepted(src, dst, numVertices)
		}
	}
	// fillPair fills chunks c and c+1 from their own streams, stepped in
	// lockstep so that their two latency-bound xorshift chains overlap.
	// Each lane accepts or rejects its own picks; once one chunk is full
	// the other finishes alone. Every stream is consumed exactly as a
	// one-chunk-at-a-time fill consumes it.
	fillPair := func(c int) {
		i0, hi0, x0 := lane(c)
		i1, hi1, x1 := lane(c + 1)
		for i0 < hi0 && i1 < hi1 {
			var s0, d0, s1, d1 int
			s0, d0, s1, d1, x0, x1 = t.pick2(x0, x1, levels)
			edges[i0] = Edge{Src: VertexID(s0), Dst: VertexID(d0)}
			edges[i1] = Edge{Src: VertexID(s1), Dst: VertexID(d1)}
			i0 += accepted(s0, d0, numVertices)
			i1 += accepted(s1, d1, numVertices)
		}
		fillAlone(i0, hi0, x0)
		fillAlone(i1, hi1, x1)
	}
	pairs := (chunks + 1) / 2
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > pairs {
		workers = pairs
	}
	if workers <= 1 {
		for c := 0; c < chunks; c += 2 {
			fillPair(c)
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
				k := int(next.Add(1)) - 1
				if k >= pairs {
					return
				}
				fillPair(2 * k)
			}
		}()
	}
	wg.Wait()
	return g, nil
}

// accepted is 1 when both ids name one of nv vertices and 0 otherwise;
// it compiles to a flag set, not a branch.
func accepted(src, dst, nv int) int {
	if max(src, dst) < nv {
		return 1
	}
	return 0
}

// rmatTableBits is how many top bits of a level's quadrant draw index
// an rmatTable, and rmatUndecided marks an entry whose draws the noise
// can move across a quadrant boundary.
const (
	rmatTableBits = 10
	rmatUndecided = 4
)

// rmatMargin widens every band of undecided draws by this much,
// relative to its bound. It is far above the few units of 2^-53 by
// which rmatQuadrant's floating-point evaluation can stray from exact
// arithmetic.
const rmatMargin = 1e-9

// maxUnitFloat is the largest draw unitFloat returns.
const maxUnitFloat = 1 - 0x1p-53

// rmatTable decides most R-MAT levels from the top rmatTableBits bits of
// the quadrant draw alone, and sends the rest to rmatQuadrant. A
// generated graph builds one, from its RMATParams, before its first
// pick.
type rmatTable struct {
	p    RMATParams
	quad [1 << rmatTableBits]uint8 // quadrant 0–3, or rmatUndecided
}

// newRMATTable builds p's quadrant table.
//
// A level's quadrant is the number of thresholds a ≤ a+b ≤ a+b+c its
// draw u = r·s reached, where s = a+b+c+d is the level's quadrant mass
// and r ∈ [0, 1) the uniform draw: 0 top-left, 1 top-right (dst bit),
// 2 bottom-left (src bit), 3 bottom-right (both). So u reaches
// threshold j when r reaches the ratio of threshold j to s. Under noise
// factor n, a = A·n and b = B·n, and the three ratios A·n/s, (A+B)·n/s
// and ((A+B)·n+C)/s = 1 − D/s never decrease as n grows, since
// s = (A+B)·n + C + D grows with it. The noise factor never decreases
// as its draw grows, so every ratio lies between its values at the
// smallest and at the largest noise draw.
//
// An entry covers the draws r ∈ [lo, hi). It has reached threshold j
// for every noise draw when lo is at least ratio j's largest value, and
// has not when hi is at most its smallest. When one of the two holds
// for all three thresholds, the entry stores the quadrant. Each bound
// is widened by the relative rmatMargin, so a stored quadrant is the one
// rmatQuadrant computes for every draw the entry covers, rounding
// included. The other entries hold rmatUndecided: on the Table 2
// parameters, 4–5% of draws.
func newRMATTable(p RMATParams) *rmatTable {
	t := &rmatTable{p: p}
	nLo, nHi := 1.0, 1.0
	if p.Noise > 0 {
		nLo, nHi = noiseFactor(p.Noise, 0), noiseFactor(p.Noise, maxUnitFloat)
	}
	lo, hi := p.ratios(nLo), p.ratios(nHi)
	for i := range t.quad {
		rLo := float64(i) / (1 << rmatTableBits)
		rHi := float64(i+1) / (1 << rmatTableBits)
		q := uint8(0)
		for j := range lo {
			if rLo >= hi[j]*(1+rmatMargin) {
				q++
			} else if rHi > lo[j]*(1-rmatMargin) {
				q = rmatUndecided
				break
			}
		}
		t.quad[i] = q
	}
	return t
}

// ratios returns the three thresholds of a level under noise factor n,
// each over the level's quadrant mass.
func (p RMATParams) ratios(n float64) [3]float64 {
	t0, t1, t2, s := p.thresholds(n)
	return [3]float64{t0 / s, t1 / s, t2 / s}
}

// thresholds returns a level's quadrant thresholds a, a+b, a+b+c and
// its quadrant mass a+b+c+d under noise factor n, which scales A and B.
// Renormalization is implicit: the thresholds are compared against a
// uniform draw scaled by the mass. Multiplying by a factor of 1 is
// exact, so n = 1 gives the noiseless level. The conversions keep
// arm64 from fusing either product into a+b.
func (p RMATParams) thresholds(n float64) (t0, t1, t2, s float64) {
	a, b := float64(p.A*n), float64(p.B*n)
	t0, t1 = a, a+b
	t2 = t1 + p.C
	return t0, t1, t2, t2 + p.D
}

// noiseFactor is a level's symmetric multiplicative noise 1 + noise·(2u−1)
// at noise draw u. The conversions round every product, as amd64 does:
// arm64 would otherwise fuse both multiply-adds, and a noise factor
// rounded once instead of twice could flip a quadrant.
func noiseFactor(noise, u float64) float64 {
	return 1 + float64(noise*(float64(2*u)-1))
}

// rmatQuadrant is one level's quadrant evaluated in floating point, at
// noise draw nu (ignored without noise) and quadrant draw r: the number
// of thresholds the scaled draw reached. Validate admits only
// non-negative, finite quadrant masses, so the thresholds never
// decrease and the count is the quadrant. Every expression is the one
// the switch form (rmatPickReference in gen_test.go) evaluates, in the
// same order, so the two decide every level alike.
func rmatQuadrant(p RMATParams, nu, r float64) int {
	n := 1.0
	if p.Noise > 0 {
		n = noiseFactor(p.Noise, nu)
	}
	t0, t1, t2, s := p.thresholds(n)
	u := r * s
	return reached(u, t0) + reached(u, t1) + reached(u, t2)
}

// reached is 1 if u ≥ t and 0 otherwise; it compiles to a flag set, not
// a branch.
func reached(u, t float64) int {
	if u >= t {
		return 1
	}
	return 0
}

// pick draws one edge of a 2^levels-vertex R-MAT graph from the
// xorshift64* stream at state x, and returns it with the stream's new
// state. Each level takes a noise draw when p has noise, then the
// quadrant draw, exactly as the switch form consumes them; the state
// stays in a register. A level whose table entry is undecided computes
// the noise factor and the thresholds (rmatQuadrant); the others read
// the quadrant and never convert the noise draw.
func (t *rmatTable) pick(x uint64, levels int) (src, dst int, next uint64) {
	noise := t.p.Noise > 0
	for l := 0; l < levels; l++ {
		if noise {
			x = xorshift(x)
		}
		nx := x
		x = xorshift(x)
		q := int(t.quad[scramble(x)>>(64-rmatTableBits)])
		if q == rmatUndecided {
			q = rmatQuadrant(t.p, unitFloat(nx), unitFloat(x))
		}
		src = src<<1 | q>>1
		dst = dst<<1 | q&1
	}
	return src, dst, x
}

// pick2 is pick on two independent streams at once, one level of each
// in turn, so that the processor overlaps their xorshift chains: each
// chain's next state waits on the one before it, and one chain alone
// leaves most of the core idle.
func (t *rmatTable) pick2(x0, x1 uint64, levels int) (src0, dst0, src1, dst1 int, next0, next1 uint64) {
	noise := t.p.Noise > 0
	for l := 0; l < levels; l++ {
		if noise {
			x0, x1 = xorshift(x0), xorshift(x1)
		}
		n0, n1 := x0, x1
		x0, x1 = xorshift(x0), xorshift(x1)
		q0 := int(t.quad[scramble(x0)>>(64-rmatTableBits)])
		q1 := int(t.quad[scramble(x1)>>(64-rmatTableBits)])
		if q0 == rmatUndecided {
			q0 = rmatQuadrant(t.p, unitFloat(n0), unitFloat(x0))
		}
		if q1 == rmatUndecided {
			q1 = rmatQuadrant(t.p, unitFloat(n1), unitFloat(x1))
		}
		src0, dst0 = src0<<1|q0>>1, dst0<<1|q0&1
		src1, dst1 = src1<<1|q1>>1, dst1<<1|q1&1
	}
	return src0, dst0, src1, dst1, x0, x1
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
		// The conversion keeps arm64 from fusing Float64's scaling
		// into the subtraction.
		w[i] = maxWeight * float32(1-float64(rng.Float64()))
	}
	return w
}
