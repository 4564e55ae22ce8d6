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
	// early: job → how many of (cost done, placement applied) hold
	early                     map[string]int
	earlyStarts, earlyDropped int
}

// NewRunner attaches a worker runner for replica self to nd. Configure
// the exported fields, then call Start (inside the event loop, or via
// a deferred host hook).
func NewRunner(nd *Node, self int) *Runner {
	r := &Runner{nd: nd, self: self, RejoinDelay: 50, early: make(map[string]int)}
	nd.Subscribe(r.onEvent)
	nd.placed = r.startEarly
	return r
}

// EarlyCounts reports the attempts startEarly began and those it dropped
// unreported (placed elsewhere, or cut by a Start). Read in the event loop.
func (r *Runner) EarlyCounts() (starts, dropped int) { return r.earlyStarts, r.earlyDropped }

// Start (re)joins the queue and resumes any attempt the replicated
// state still assigns to this worker — the restart path after a crash:
// journal recovery has already rebuilt the state, and re-executing a
// still-assigned attempt is safe because its completion carries the
// original attempt token (if the job was meanwhile reassigned, the
// stale token is rejected). Must run inside the event loop.
func (r *Runner) Start() {
	r.stopped = false
	r.earlyDropped += len(r.early) // the assigned ones are re-executed below
	clear(r.early)
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
	if _, ok := r.early[ev.Job]; ok && ev.Kind == EvSubmitted && !r.stopped {
		// The job's first submit applied; a later duplicate is an EvNop.
		if ev.Worker == r.self {
			r.earlyHolds(ev.Job)
		} else { // refused, or an earlier duplicate placed it elsewhere
			delete(r.early, ev.Job)
			r.earlyDropped++
		}
		return
	}
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

// startEarly is Node.Submit's hook for a job it places on this worker: the
// cost runs while the submit is ordered; the outcome waits for the submit to
// apply with the placement taken, and one applied without it drops it.
func (r *Runner) startEarly(c Cmd) {
	if _, ok := r.early[c.Job]; ok || r.stopped || c.Worker != r.self {
		return
	}
	r.early[c.Job] = 0
	r.earlyStarts++
	r.Defer(r.cost(Job{ID: c.Job, Payload: c.Payload, Budget: c.Budget, State: Assigned, Attempt: 1, Worker: r.self}), func() {
		if _, ok := r.early[c.Job]; ok && !r.stopped {
			r.earlyHolds(c.Job)
		}
	})
}

// earlyHolds counts a condition of id's early attempt and reports at two.
func (r *Runner) earlyHolds(id string) {
	if r.early[id]++; r.early[id] == 2 {
		delete(r.early, id)
		r.report(id, 1)
	}
}

// execute runs one attempt: it proposes the outcome after the job's
// cost. j is the assignment-time snapshot; j.Attempt is the idempotency
// token for the whole attempt.
func (r *Runner) execute(j Job) {
	r.Defer(r.cost(j), func() {
		if !r.stopped {
			r.report(j.ID, j.Attempt)
		}
	})
}

// cost is j's execution time in ticks.
func (r *Runner) cost(j Job) amp.Time {
	if r.Cost == nil {
		return 1
	}
	return max(1, r.Cost(j))
}

// report proposes the outcome of the attempt, Work'd on the applied job,
// unless the local view shows the attempt settled (terminal, released,
// or reassigned). That view can lag, so a reappearing worker may still
// report an attempt the cluster has reassigned: its token loses the
// apply-time validation and is counted Stale, never a second effect.
func (r *Runner) report(id string, attempt int) {
	j, ok := r.nd.State().Job(id)
	if !ok || j.State.Terminal() || j.Worker != r.self || j.Attempt != attempt {
		return // settled, or no longer our attempt
	}
	var out Cmd
	if r.Work == nil {
		out = Cmd{Kind: CmdComplete, Job: id, Worker: r.self, Attempt: attempt}
	} else if res, errMsg, ok := r.Work(j); ok {
		out = Cmd{Kind: CmdComplete, Job: id, Worker: r.self, Attempt: attempt, Result: res}
	} else {
		out = Cmd{Kind: CmdFail, Job: id, Worker: r.self, Attempt: attempt, Err: errMsg}
	}
	r.nd.Propose(r.nd.Ctx(), out)
}
