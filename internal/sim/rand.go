package sim

import "math"

// RNG is a small, fast, seedable pseudo-random generator
// (xoshiro256** seeded via splitmix64). Every stochastic component of the
// simulator draws from its own RNG stream so that runs are reproducible and
// component behaviour is independent of evaluation order.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator in place to the stream NewRNG(seed) starts. A
// generator held by value then draws exactly what an allocated one would:
// child.Seed(parent.Uint64()) is parent.Split() without the allocation.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion of the seed, per Blackman & Vigna's
	// recommendation for initializing xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent child stream. The child is seeded from the
// parent's output so sub-components get decorrelated streams without the
// caller inventing seed arithmetic.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// State reports the generator's internal state word-for-word, and SetState
// restores it: together they let a checkpoint resume a stream mid-sequence
// without replaying draws.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given mean (> 0). Used for
// Poisson task-session inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto variate with shape beta and location a
// (CDF 1-(a/x)^beta, x >= a), the paper's Eq. 7. Used for ON/OFF period
// lengths in the self-similar traffic generator.
func (r *RNG) Pareto(beta, a float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return a / math.Pow(u, 1/beta)
}

// UniformRange returns a uniform value in [lo, hi).
func (r *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
