package graph

// RNG is a small, deterministic, allocation-free pseudo-random generator
// (xorshift64* family) used by the synthetic graph generators. The
// simulator needs bit-identical graphs across runs and platforms so every
// experiment is reproducible; math/rand's global state and Go-version-
// dependent algorithms make that guarantee awkward, hence a local core.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed odd constant because the xorshift state must be non-zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// SplitMix64 is the finalizer of the splitmix64 generator: a bijective
// avalanche mix of the input. It derives statistically independent child
// seeds from (seed, label) pairs — the graph generators use it to give
// every generation chunk its own RNG stream so chunks can be produced in
// parallel, in any order, with byte-identical output.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// xorshift advances a xorshift64* state by one step.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// scramble is xorshift64*'s output function: the 64 random bits drawn
// at state x.
func scramble(x uint64) uint64 { return x * 0x2545F4914F6CDD1D }

// unitFloat is the Float64 draw at state x, for loops that keep the
// state in a local: the top 53 output bits over 2^53. They fit in an
// int64, so converting through it is exact and needs no unsigned
// conversion sequence.
func unitFloat(x uint64) float64 {
	return float64(int64(scramble(x)>>11)) / (1 << 53)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state = xorshift(r.state)
	return scramble(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("graph: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
