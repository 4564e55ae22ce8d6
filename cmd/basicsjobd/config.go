package main

import (
	"distbasics/internal/amp"
	"distbasics/internal/jobq"
	"distbasics/internal/node"
)

// Config is the cluster description shared by every node and the e2e
// driver: the common cluster file (one entry per node in each list, all
// indexed by node id) plus the queue policy. Every node is both a queue
// replica and a worker.
type Config struct {
	node.Config

	// Queue policy, in clock ticks (zero values take the daemon
	// defaults below, not the jobq simulation-scale defaults).
	// GraceTicks is the continuous-suspicion age that lapses a worker's
	// lease; StepTicks the scheduler's fallback pulse period (the healthy
	// path schedules on apply, see jobq.Config.StepEvery); ReproposeTicks
	// how long the scheduler waits before re-proposing an assign/expire
	// whose decision has not landed; RetryBase/RetryCap the reassignment
	// backoff curve; RetryBudget the default per-job attempt budget.
	GraceTicks     int `json:"grace_ticks,omitempty"`
	StepTicks      int `json:"step_ticks,omitempty"`
	ReproposeTicks int `json:"repropose_ticks,omitempty"`
	MaxPerWorker   int `json:"max_per_worker,omitempty"`
	RetryBase      int `json:"retry_base,omitempty"`
	RetryCap       int `json:"retry_cap,omitempty"`
	RetryBudget    int `json:"retry_budget,omitempty"`
}

// Daemon-scale queue policy defaults (ticks; 2ms each by default).
// Grace = 10 heartbeats: a worker must miss ~800ms of heartbeats
// continuously before its lease lapses and its jobs are reassigned.
//
// ReproposeTicks is the critical one: it must sit well ABOVE the
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
	defaultGraceTicks     = 10 * int(node.HeartbeatPeriod)
	defaultStepTicks      = 25   // 50ms fallback pulse: bounds back-off/grace lateness, cheap when idle
	defaultReproposeTicks = 1500 // 3s: >> a chaos-degraded consensus round
	// defaultPaceTicks spaces the leader's ballots (rsm.WithPace). Five
	// replicas on one box spend more than a tick or two on each, so at 1
	// or 2 the queue runs as fast as the CPU lets it that minute; at 3 it
	// follows the clock (138 to 143 jobs/s, run after run).
	defaultPaceTicks = 3
)

// defaultRunnerRetryTicks is the worker's at-least-once re-proposal
// period for joins and outcome reports (2s real time) — same reasoning
// as defaultReproposeTicks, against the jobq default of 500 ticks.
const defaultRunnerRetryTicks = 1000

// jobqConfig assembles the queue policy for node id (the retry jitter
// stream is seeded per node so leaders that take over after a failover
// do not re-derive their predecessor's jitter).
func (c *Config) jobqConfig(id int) jobq.Config {
	or := func(v, def int) amp.Time {
		if v == 0 {
			v = def
		}
		return amp.Time(v)
	}
	return jobq.Config{
		Grace:          or(c.GraceTicks, defaultGraceTicks),
		StepEvery:      or(c.StepTicks, defaultStepTicks),
		ReproposeEvery: or(c.ReproposeTicks, defaultReproposeTicks),
		MaxPerWorker:   c.MaxPerWorker,
		Retry: jobq.RetryPolicy{
			Base:   amp.Time(c.RetryBase),
			Cap:    amp.Time(c.RetryCap),
			Budget: c.RetryBudget,
			Seed:   int64(id + 1),
		},
	}
}
