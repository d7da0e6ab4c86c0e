// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Determinism matters more than statistical perfection here: every simulator
// run with the same seed must produce bit-identical results so that
// experiments are reproducible and policy comparisons are noise-free. The
// generator is splitmix64 (Steele, Lea, Flood; JPDC 2014), which passes
// BigCrush and supports cheap stream splitting, so independent subsystems
// (per-thread programs, per-branch outcome streams, address generators) can
// each own an uncorrelated stream derived from one master seed.
package rng

// Source is a splittable splitmix64 generator. The zero value is a valid
// generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Golden is the splitmix64 increment (2^64 / phi, rounded to odd).
const Golden = 0x9E3779B97F4A7C15

// Mix is the splitmix64 output function applied to a raw counter value:
// full avalanche for three multiplies. Mix(x + Golden) is the first draw
// of a stream seeded at x.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += Golden
	return Mix(s.state)
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's. The receiver advances by one step.
func (s *Source) Split() *Source {
	return &Source{state: Mix(s.Uint64())}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a value drawn from a geometric distribution with the
// given mean (mean >= 1); the result is always at least 1. It is used for
// basic-block lengths and loop trip counts.
func (s *Source) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// P(stop) each step = 1/mean; expected value = mean.
	p := 1 / mean
	n := 1
	for !s.Bool(p) {
		n++
		if n >= int(mean*20) { // clamp the tail for worst-case safety
			break
		}
	}
	return n
}

// Hash returns a stateless mix of the arguments, useful for deriving
// deterministic per-entity values (e.g. the outcome of dynamic instance i of
// static branch b) without carrying generator state.
func Hash(vals ...uint64) uint64 {
	h := uint64(0x2545F4914F6CDD1D)
	for _, v := range vals {
		h ^= Mix(v + Golden)
		h *= 0x100000001B3
	}
	return Mix(h)
}
