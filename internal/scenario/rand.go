package scenario

import "distbasics/internal/splitmix"

// Rand is the harness's deterministic pseudo-random source: the
// repository's SplitMix64 (package splitmix) with the draws scenario
// generation needs, and independent sub-streams that can be derived for
// fault events without consuming the parent stream.
type Rand struct{ splitmix.Source }

// NewRand returns a generator seeded with seed (pre-mixed, so nearby
// campaign seeds produce uncorrelated streams).
func NewRand(seed uint64) *Rand { return &Rand{splitmix.New(seed)} }

// Derive returns an independent sub-stream identified by stream; the
// parent's state is not consumed.
func (r *Rand) Derive(stream uint64) *Rand {
	return NewRand(r.State() ^ (stream+1)*0xbf58476d1ce4e5b9)
}

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (r *Rand) Int63n(n int64) int64 {
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bool returns a pseudo-random bit.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }
