package sim

import (
	"math/bits"

	"amber/internal/snap"
)

// RNG is a small deterministic pseudo-random generator (xoshiro256**) used
// wherever the simulator needs randomness: ISPP latency draws, random cache
// replacement, workload address streams. A hand-rolled generator keeps runs
// byte-for-byte reproducible across Go releases, which math/rand does not
// guarantee for its global functions.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value via splitmix64,
// so nearby seeds give uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// SetState reinstalls a previously captured generator state, so the stream
// continues exactly where the captured generator left off. The all-zero
// state (which xoshiro cannot escape) is rejected by substituting the same
// non-zero fallback NewRNG uses.
func (r *RNG) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Snap walks the generator state for a snapshot image, with SetState's
// all-zero guard on the way in.
func (r *RNG) Snap(c *snap.Codec) {
	for i := range r.s {
		snap.U(c, &r.s[i])
	}
	r.SetState(r.s)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	threshold := (-n) % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
