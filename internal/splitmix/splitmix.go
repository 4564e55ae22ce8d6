// Package splitmix is the repository's one pseudo-random generator:
// Vigna's SplitMix64, 8 bytes of state, passes BigCrush. Every seeded
// stream in the tree — the amp simulator's delay, process and adversary
// streams, the scenario harness, transport chaos and retry jitter, jobq
// back-off jitter — is one of these, owned here and not by math/rand so
// that a stream is a stable function of its seed whatever the standard
// library's generators become: pinned reproducers, chaos verdicts and
// jitter bounds all depend on the exact bits.
package splitmix

const gamma = 0x9e3779b97f4a7c15

// Source is a SplitMix64 stream. *Source is a math/rand Source64, which
// is how the amp simulator uses it: the standard library's default
// source carries a 607-word lazily-refilled table (~4.9KB, plus a costly
// seeding loop), and at n in the thousands the simulator's per-process
// sources were its dominant allocation.
type Source struct{ state uint64 }

// Raw returns the stream whose state is seed itself.
func Raw(seed uint64) Source { return Source{state: seed} }

// New returns the stream for seed pre-mixed, so that nearby seeds (1, 2,
// 3, ... campaign seeds, node ids) produce uncorrelated streams.
func New(seed uint64) Source {
	s := Source{state: seed ^ gamma}
	s.Uint64()
	return s
}

// Seed implements math/rand.Source: the state becomes seed, as in Raw.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// State returns the current state, for deriving sub-streams from it
// without consuming the stream.
func (s *Source) State() uint64 { return s.state }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). n must be > 0.
func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }
