package main

import "distbasics/internal/jobq"

// The daemon's queue policy (ticks of transport.DefaultUnit, 2ms); what
// it does not name — workers' cap, the back-off curve, the attempt
// budget — is jobq's default. graceTicks: a worker must be suspected
// for 800ms continuously before its lease lapses and its jobs are
// reassigned. It is a stated time, not a count of heartbeats (20 of
// node.HeartbeatPeriod's 20 ticks), so a change of period does not also
// change the hiccup a worker may have: suspicion comes 60–80 ticks
// after a worker's last heartbeat, and the grace runs from there. The
// daemon keeps node.HeartbeatPeriod, not kv's 10 ticks: at 10, five
// processes under load on two cores suspected live peers. stepTicks is
// the scheduler's fallback pulse (the healthy path schedules on apply,
// see jobq.Config.StepEvery). Ballots run at rsm's default pace, as kv's
// do: with one decide broadcast per slot, five replicas on one box keep
// up with the clock unspaced.
// Nothing paces re-proposals: each command is proposed once, and rsm
// re-sends a lingering payload (README.md: the congestion collapse that
// timer-driven re-proposal caused).
const (
	graceTicks = 400
	stepTicks  = 25 // 50ms fallback pulse: bounds back-off/grace lateness, cheap when idle
)

// jobqConfig assembles the queue policy for node id (the retry jitter
// stream is seeded per node so leaders that take over after a failover
// do not re-derive their predecessor's jitter).
func jobqConfig(id int) jobq.Config {
	return jobq.Config{
		Grace:     graceTicks,
		StepEvery: stepTicks,
		Retry:     jobq.RetryPolicy{Seed: int64(id + 1)},
	}
}
