package graph

import "testing"

// rmatPickReference is the switch form of the pick, kept as its oracle:
// one branch per quadrant (referenceQuadrant), and every draw goes
// through RNG.Float64 and the state behind the pointer. Every committed
// digest was recorded with it.
func rmatPickReference(rng *RNG, levels int, p RMATParams) (src, dst int) {
	for l := 0; l < levels; l++ {
		nu := 0.0
		if p.Noise > 0 {
			nu = rng.Float64()
		}
		src, dst = referenceQuadrant(p, nu, rng.Float64(), src<<1, dst<<1)
	}
	return src, dst
}

// referenceQuadrant is one level of rmatPickReference at noise draw nu
// (unused without noise) and quadrant draw r: it sets the level's bits
// of src and dst.
func referenceQuadrant(p RMATParams, nu, r float64, src, dst int) (int, int) {
	a, b, c := p.A, p.B, p.C
	if p.Noise > 0 {
		// Symmetric multiplicative noise per level. The conversions
		// round every product, as amd64 does, where arm64 would fuse.
		n := 1 + float64(p.Noise*(float64(2*nu)-1))
		a = float64(a * n)
		b = float64(b * n)
		// Renormalization is implicit: thresholds below compare the
		// running prefix sums against a fresh uniform draw.
	}
	u := r * (a + b + c + p.D)
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

// checkPickMatchesReference draws picks edges from one seed with the
// table pick and with the reference, and requires equal src, dst and
// RNG state after every pick. It then steps two lanes, seeded with seed
// and with a second seed derived from it, through the two-lane pick,
// and holds each lane to its own reference stream the same way.
func checkPickMatchesReference(t *testing.T, p RMATParams, levels int, seed uint64, picks int) {
	t.Helper()
	tab := newRMATTable(p)
	x, want := NewRNG(seed).state, NewRNG(seed)
	for i := 0; i < picks; i++ {
		var gs, gd int
		gs, gd, x = tab.pick(x, levels)
		ws, wd := rmatPickReference(want, levels, p)
		if gs != ws || gd != wd || x != want.state {
			t.Fatalf("%+v levels=%d seed=%d pick %d: got (%d, %d) state %#x, want (%d, %d) state %#x",
				p, levels, seed, i, gs, gd, x, ws, wd, want.state)
		}
	}
	seed1 := SplitMix64(seed)
	x0, x1 := NewRNG(seed).state, NewRNG(seed1).state
	want0, want1 := NewRNG(seed), NewRNG(seed1)
	for i := 0; i < picks; i++ {
		var s0, d0, s1, d1 int
		s0, d0, s1, d1, x0, x1 = tab.pick2(x0, x1, levels)
		ws0, wd0 := rmatPickReference(want0, levels, p)
		ws1, wd1 := rmatPickReference(want1, levels, p)
		if s0 != ws0 || d0 != wd0 || x0 != want0.state {
			t.Fatalf("%+v levels=%d seed=%d two-lane pick %d, lane 0: got (%d, %d) state %#x, want (%d, %d) state %#x",
				p, levels, seed, i, s0, d0, x0, ws0, wd0, want0.state)
		}
		if s1 != ws1 || d1 != wd1 || x1 != want1.state {
			t.Fatalf("%+v levels=%d seed=%d two-lane pick %d, lane 1: got (%d, %d) state %#x, want (%d, %d) state %#x",
				p, levels, seed1, i, s1, d1, x1, ws1, wd1, want1.state)
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

// FuzzRMATPick holds the table pick and the two-lane pick to the switch
// form on any parameters Validate accepts, at 0–32 levels.
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

// TestRMATTableDecidesExactly holds every decided table entry to the
// switch form at the corners of the draws it covers: its lowest and
// highest quadrant draw, each under the smallest and the largest noise
// draw. Because the thresholds' ratios to the quadrant mass never
// decrease with the noise factor, the corners bound every draw between
// them. It also requires the table to decide all but a few percent of
// draws on the Table 2 parameters, or the pick would gain nothing.
func TestRMATTableDecidesExactly(t *testing.T) {
	const entries = 1 << rmatTableBits
	check := func(name string, p RMATParams) (undecided int) {
		tab := newRMATTable(p)
		for i, q := range tab.quad {
			if q == rmatUndecided {
				undecided++
				continue
			}
			if q > 3 {
				t.Fatalf("%s: entry %d holds %d, neither a quadrant nor rmatUndecided", name, i, q)
			}
			lowest := float64(i) / entries
			highest := float64(i+1)/entries - 0x1p-53
			for _, r := range []float64{lowest, highest} {
				for _, nu := range []float64{0, maxUnitFloat} {
					src, dst := referenceQuadrant(p, nu, r, 0, 0)
					if want := src<<1 | dst; int(q) != want {
						t.Errorf("%s: entry %d holds quadrant %d, the switch form gives %d at draw %v, noise draw %v",
							name, i, q, want, r, nu)
					}
					if got := rmatQuadrant(p, nu, r); got != int(q) {
						t.Errorf("%s: entry %d holds quadrant %d, rmatQuadrant gives %d at draw %v, noise draw %v",
							name, i, q, got, r, nu)
					}
				}
			}
		}
		return undecided
	}
	for _, tc := range rmatPickCases {
		check(tc.name, tc.p)
	}
	for _, d := range Datasets {
		if share := float64(check(d.Name, d.RMAT)) / entries; share > 0.06 {
			t.Errorf("%s: %.1f%% of table entries undecided, want at most 6%%", d.Name, 100*share)
		}
	}
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
