package jobq

import (
	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// Runner is the worker-side glue: it watches the replica's event
// stream for assignments to this worker, executes them after their
// cost, and reports Complete/Fail carrying the assignment's attempt
// number as the idempotency token. Workers are co-located with
// replicas (worker ID == replica ID), which is what lets the failure
// detector's suspicion double as the worker lease.
//
// A Runner proposes each join and each outcome once: internal/rsm
// re-sends a proposal until it is ordered, through partitions and drop
// windows alike. Duplicates still happen (a rejoin raced by a second
// expiry, a restart re-executing an attempt it already reported) and
// are harmless, since the state machine validates every command: of N
// copies of the same completion, the first in the total order has the
// effect and the rest are rejected. A Runner never trusts its own
// liveness either: its completion may race a lease expiry that already
// released (and reassigned) the job, and the attempt token — not the
// runner — decides which effect counts.
//
// Everything here runs inside the replica's event loop via the
// host-provided Defer.
type Runner struct {
	// Defer schedules f to run d ticks from now INSIDE the replica's
	// event loop: amp hosts wrap Sim.Schedule, real-clock hosts wrap
	// clock.AfterFunc + Runtime.Do.
	Defer func(d amp.Time, f func())
	// Work decides an attempt's outcome: (result, "", true) on success,
	// (nil, diagnosis, false) on failure. Nil = always succeed with a
	// nil result.
	Work func(j Job) (result any, errMsg string, ok bool)
	// Cost returns the attempt's execution time in ticks (nil or
	// nonpositive = 1).
	Cost func(j Job) amp.Time
	// RejoinDelay is how long an expired-but-alive worker waits before
	// rejoining (default 50).
	RejoinDelay amp.Time

	nd      *Node
	self    int
	stopped bool
}

// NewRunner attaches a worker runner for replica self to nd. Configure
// the exported fields, then call Start (inside the event loop, or via
// a deferred host hook).
func NewRunner(nd *Node, self int) *Runner {
	r := &Runner{nd: nd, self: self, RejoinDelay: 50}
	nd.Subscribe(r.onEvent)
	return r
}

// Start (re)joins the queue and resumes any attempt the replicated
// state still assigns to this worker — the restart path after a crash:
// journal recovery has already rebuilt the state, and re-executing a
// still-assigned attempt is safe because its completion carries the
// original attempt token (if the job was meanwhile reassigned, the
// stale token is rejected). Must run inside the event loop.
func (r *Runner) Start() {
	r.stopped = false
	r.Defer(1, r.join)
	for _, j := range r.nd.State().Jobs() {
		if (j.State == Assigned || j.State == Running) && j.Worker == r.self {
			r.execute(j)
		}
	}
}

// Stop silences the runner (the in-process crash model: deferred work
// scheduled before the stop is dropped when it fires). A real process
// crash needs no Stop — its timers die with it.
func (r *Runner) Stop() { r.stopped = true }

// join proposes CmdJoin unless the local state lists this worker (a
// duplicate join is a validated no-op).
func (r *Runner) join() {
	if r.stopped || r.nd.State().Alive(r.self) {
		return
	}
	r.nd.Propose(r.nd.Ctx(), Cmd{Kind: CmdJoin, Worker: r.self})
}

// onEvent reacts to applied queue commands.
func (r *Runner) onEvent(ev Event, _ rsm.Entry, _ amp.Time) {
	if r.stopped || ev.Worker != r.self {
		return
	}
	switch ev.Kind {
	case EvAssigned, EvSubmitted: // a submit names this worker only when its placement took
		if j, ok := r.nd.State().Job(ev.Job); ok {
			r.execute(j)
		}
	case EvWorkerExpired:
		// The scheduler expired our lease but we are alive (a partition
		// outlived the grace period): rejoin. Any in-flight attempt keeps
		// running — its token settles the race with the reassignment.
		d := r.RejoinDelay
		if d <= 0 {
			d = 1
		}
		r.Defer(d, r.join)
	}
}

// execute runs one attempt: it proposes the outcome after the job's
// cost, and nothing before that. j is the assignment-time snapshot;
// j.Attempt is the idempotency token for the whole attempt. The outcome
// is not proposed when the local view shows the attempt settled
// (terminal, released, or reassigned). That view can lag, so a
// reappearing worker may still report an attempt the cluster has
// reassigned: its token loses the apply-time validation and is counted
// Stale, never a second effect.
func (r *Runner) execute(j Job) {
	cost := amp.Time(1)
	if r.Cost != nil {
		if c := r.Cost(j); c > 0 {
			cost = c
		}
	}
	r.Defer(cost, func() {
		if r.stopped {
			return
		}
		cur, ok := r.nd.State().Job(j.ID)
		if !ok || cur.State.Terminal() || cur.Worker != r.self || cur.Attempt != j.Attempt {
			return // settled, or no longer our attempt
		}
		var out Cmd
		if r.Work == nil {
			out = Cmd{Kind: CmdComplete, Job: j.ID, Worker: r.self, Attempt: j.Attempt}
		} else if res, errMsg, ok := r.Work(j); ok {
			out = Cmd{Kind: CmdComplete, Job: j.ID, Worker: r.self, Attempt: j.Attempt, Result: res}
		} else {
			out = Cmd{Kind: CmdFail, Job: j.ID, Worker: r.self, Attempt: j.Attempt, Err: errMsg}
		}
		r.nd.Propose(r.nd.Ctx(), out)
	})
}
