package amp

import "distbasics/internal/splitmix"

// Backoff is the tree's one retry curve, shared by every layer that
// retries against a possibly-degraded resource (transport.Policy for
// frames, jobq.RetryPolicy for jobs): the delay before retry number
// attempt (1-based) is base, doubling per attempt, bounded by ceiling, then
// spread uniformly by ± jitterPct percent drawn from rng so that a
// burst of same-aged failures decorrelates; never less than one tick.
//
// jitterPct carries the one defaulting rule: 0 means the default 25,
// negative means no jitter (and no draw from rng).
func Backoff(base, ceiling Time, jitterPct, attempt int, rng *splitmix.Source) Time {
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	d = min(d, ceiling)
	if jitterPct == 0 {
		jitterPct = 25
	}
	if span := int64(d) * int64(jitterPct) / 100; span > 0 {
		d += Time(int64(rng.Uint64()%uint64(2*span+1)) - span)
	}
	return max(d, 1)
}
