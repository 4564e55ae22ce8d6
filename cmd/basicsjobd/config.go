package main

import (
	"distbasics/internal/jobq"
	"distbasics/internal/node"
)

// The daemon's queue policy (ticks of transport.DefaultUnit, 2ms); what
// it does not name — workers' cap, the back-off curve, the attempt
// budget — is jobq's default. graceTicks = 10 heartbeats: a worker must
// miss ~800ms of heartbeats continuously before its lease lapses and its
// jobs are reassigned. stepTicks is the scheduler's fallback pulse (the
// healthy path schedules on apply, see jobq.Config.StepEvery). Ballots
// run at rsm's default pace, as kv's do: with one decide broadcast per
// slot, five replicas on one box keep up with the clock unspaced.
//
// reproposeTicks is the critical one: it must sit well ABOVE the
// worst-case consensus round-trip on the real transport (hundreds of
// milliseconds under chaos), unlike the jobq library default of
// 8*StepEvery, which is tuned to simulation-scale decide latency. Too
// low and every scheduler pass re-broadcasts the same still-undecided
// assignment as a fresh TO payload; the duplicates swell every
// subsequent proposal batch, bigger batches slow the rounds down
// further, and the feedback loop congestion-collapses consensus (the
// observed failure mode: thousands of duplicate assigns pending, slot
// ballots in the hundreds, no decision for minutes).
const (
	graceTicks     = 10 * node.HeartbeatPeriod
	stepTicks      = 25   // 50ms fallback pulse: bounds back-off/grace lateness, cheap when idle
	reproposeTicks = 1500 // 3s: >> a chaos-degraded consensus round
	// runnerRetryTicks is the worker's at-least-once re-proposal period
	// for joins and outcome reports (2s real time) — same reasoning as
	// reproposeTicks, against the jobq default of 500 ticks.
	runnerRetryTicks = 1000
)

// jobqConfig assembles the queue policy for node id (the retry jitter
// stream is seeded per node so leaders that take over after a failover
// do not re-derive their predecessor's jitter).
func jobqConfig(id int) jobq.Config {
	return jobq.Config{
		Grace:          graceTicks,
		StepEvery:      stepTicks,
		ReproposeEvery: reproposeTicks,
		Retry:          jobq.RetryPolicy{Seed: int64(id + 1)},
	}
}
