package amp

import (
	"math/rand"

	"distbasics/internal/splitmix"
)

// newRand returns a seeded *rand.Rand over a SplitMix64 source — the
// simulator's internal randomness (root delay stream, per-process
// streams, adversary streams).
func newRand(seed int64) *rand.Rand {
	src := splitmix.Raw(uint64(seed))
	return rand.New(&src)
}
