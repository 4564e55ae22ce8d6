package jobq

import (
	"distbasics/internal/amp"
	"distbasics/internal/splitmix"
)

// RetryPolicy governs when a failed or released job becomes eligible
// for reassignment. It has transport.Policy's shape — amp.Backoff's
// exponential base-to-cap curve with seeded ± jitter, and an attempt
// budget — because the problem is the same at a different layer:
// bounded, decorrelated retries against a possibly-degraded resource,
// with a hard stop (there the frame is dropped with a RetryError, here
// the job is parked in the Failed dead-letter state).
//
// The policy is LEADER-LOCAL, not replicated: backoff deadlines are
// read against the scheduling leader's own clock, so replicas never
// need clock agreement. All durations are clock ticks.
type RetryPolicy struct {
	// Base is the backoff before the first retry; it doubles per failed
	// attempt (default 50).
	Base amp.Time
	// Cap bounds the backoff (default 1000).
	Cap amp.Time
	// JitterPct spreads each backoff uniformly by +/- this percentage
	// (default 25; negative for none), so a burst of same-aged failures
	// decorrelates.
	JitterPct int
	// Budget is the default max attempts per job (default 3) — used by
	// submitters that do not pick one; exhaustion dead-letters the job.
	Budget int
	// Seed seeds the jitter stream.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Base <= 0 {
		p.Base = 50
	}
	if p.Cap <= 0 {
		p.Cap = 1000
	}
	if p.Budget <= 0 {
		p.Budget = 3
	}
	return p
}

// Backoff returns the jittered delay before the job may be reassigned
// after its attempt'th attempt failed: Base after the first, doubling
// per attempt, bounded by Cap (amp.Backoff, transport.Policy's curve too).
func (p RetryPolicy) Backoff(attempt int, rng *splitmix.Source) amp.Time {
	return amp.Backoff(p.Base, p.Cap, p.JitterPct, attempt, rng)
}
