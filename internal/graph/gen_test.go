package graph

import "testing"

// rmatPickReference is the switch form of rmatPick, kept as its oracle:
// one branch per quadrant, and every draw goes through RNG.Float64 and
// the state behind the pointer. Every committed digest was recorded
// with it.
func rmatPickReference(rng *RNG, levels int, p RMATParams) (src, dst int) {
	for l := 0; l < levels; l++ {
		a, b, c := p.A, p.B, p.C
		if p.Noise > 0 {
			// Symmetric multiplicative noise per level.
			n := 1 + p.Noise*(2*rng.Float64()-1)
			a *= n
			b *= n
			// Renormalization is implicit: thresholds below compare the
			// running prefix sums against a fresh uniform draw.
		}
		u := rng.Float64() * (a + b + c + p.D)
		src <<= 1
		dst <<= 1
		switch {
		case u < a:
			// top-left quadrant: neither bit set.
		case u < a+b:
			dst |= 1
		case u < a+b+c:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// rmatPickCases span the parameters the pick must reproduce exactly:
// with and without noise, each of B, C and D empty in turn, all mass in
// A, and quadrant sums at Validate's 0.999 and 1.001 limits.
var rmatPickCases = []struct {
	name string
	p    RMATParams
}{
	{"default", DefaultRMAT},
	{"noise-0", RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}},
	{"noise-max", RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.4999}},
	{"B=0", RMATParams{A: 0.6, C: 0.3, D: 0.1, Noise: 0.05}},
	{"C=0", RMATParams{A: 0.6, B: 0.3, D: 0.1, Noise: 0.05}},
	{"D=0", RMATParams{A: 0.6, B: 0.2, C: 0.2, Noise: 0.05}},
	{"A=1", RMATParams{A: 1}},
	{"A=1-noise", RMATParams{A: 1, Noise: 0.05}},
	{"sum-0.999", RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.049, Noise: 0.05}},
	{"sum-1.001", RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.051, Noise: 0.05}},
}

// checkPickMatchesReference draws picks edges from one seed with
// rmatPick and with the reference, and requires equal src, dst and RNG
// state after every pick.
func checkPickMatchesReference(t *testing.T, p RMATParams, levels int, seed uint64, picks int) {
	t.Helper()
	got, want := NewRNG(seed), NewRNG(seed)
	for i := 0; i < picks; i++ {
		gs, gd := rmatPick(got, levels, p)
		ws, wd := rmatPickReference(want, levels, p)
		if gs != ws || gd != wd || got.state != want.state {
			t.Fatalf("%+v levels=%d seed=%d pick %d: got (%d, %d) state %#x, want (%d, %d) state %#x",
				p, levels, seed, i, gs, gd, got.state, ws, wd, want.state)
		}
	}
}

func TestRMATPickMatchesReference(t *testing.T) {
	for _, tc := range rmatPickCases {
		if err := tc.p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for levels := 0; levels <= 32; levels++ {
			checkPickMatchesReference(t, tc.p, levels, uint64(levels)+1, 500)
		}
	}
}

// FuzzRMATPick holds the branch-free pick to the switch form on any
// parameters Validate accepts, at 0–32 levels.
func FuzzRMATPick(f *testing.F) {
	for i, tc := range rmatPickCases {
		f.Add(uint64(i), uint8(2*i), tc.p.A, tc.p.B, tc.p.C, tc.p.D, tc.p.Noise)
	}
	f.Fuzz(func(t *testing.T, seed uint64, levels uint8, a, b, c, d, noise float64) {
		p := RMATParams{A: a, B: b, C: c, D: d, Noise: noise}
		if p.Validate() != nil {
			return // the generators refuse these before any pick
		}
		checkPickMatchesReference(t, p, int(levels%33), seed, 64)
	})
}

// TestGenerateRefusesVertexCountsBeyondVertexID pins the 32-bit id
// limit: 1<<32 vertices is the most a VertexID can name. Past it the
// ids would be silently truncated, and the graph would still pass
// Validate, so the generators must refuse the count.
func TestGenerateRefusesVertexCountsBeyondVertexID(t *testing.T) {
	if g, err := GenerateRMAT(1<<33, 4, DefaultRMAT, 1); err == nil {
		t.Errorf("GenerateRMAT(1<<33) returned a graph of %d vertices, want an error", g.NumVertices)
	}
	if g, err := GenerateUniform(1<<33, 4, 1); err == nil {
		t.Errorf("GenerateUniform(1<<33) returned a graph of %d vertices, want an error", g.NumVertices)
	}
	for _, gen := range []func() (*Graph, error){
		func() (*Graph, error) { return GenerateRMAT(1<<32, 4, DefaultRMAT, 1) },
		func() (*Graph, error) { return GenerateUniform(1<<32, 4, 1) },
	} {
		g, err := gen()
		if err != nil {
			t.Fatalf("1<<32 vertices refused: %v", err)
		}
		if g.NumVertices != 1<<32 || g.NumEdges() != 4 {
			t.Fatalf("got %d vertices, %d edges; want 1<<32 and 4", g.NumVertices, g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
