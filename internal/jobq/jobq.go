// Package jobq is a crash-resilient distributed job queue built from
// the repository's basics, composed exactly as the paper argues they
// should be (§5: failure detectors + total-order broadcast + the
// replicated state machine): the scheduler's entire state — jobs with
// their Pending→Assigned→Completed/Failed lifecycle, per-job
// attempt counters and retry budgets, and the set of live workers — is
// a deterministic state machine replicated via internal/rsm, while
// everything time-dependent (worker-liveness grace, retry backoff) is
// leader-local policy layered on internal/fd's suspicion output.
//
// The split matters: replicas running on different machines do not
// share a clock, so anything in the REPLICATED state must be a pure
// function of the agreed command sequence. Commands therefore carry
// their own evidence (the attempt number as an idempotency token) and
// every transition is validated at apply time. A leader may propose a
// duplicate assignment, an expired worker may propose a completion for
// a job that was long since reassigned — the first valid command in
// the total order wins and every later conflicting one is rejected
// identically at every replica. That validation is the whole
// exactly-once argument; no replica ever needs to trust a proposer.
//
// Placement rides the same rule. Every replica holds the worker set and
// a failure detector, so the replica a job is submitted at names the
// worker of its first attempt in the submit itself (Node.Submit): a
// healthy job is two commands in two consensus rounds, the submit and
// the worker's complete (or fail). Apply takes the choice iff that
// worker is joined and holds fewer jobs than the cap the command
// carries, at that point of the total order, so MaxPerWorker is a hard
// bound however many replicas place at once. Only the outcome waits for the
// applied placement: a job placed on its submitter's own worker (itself on
// ties) runs during the submit's round (Runner.startEarly).
//
//   - Liveness: workers are replicas; internal/fd's heartbeat suspicion
//     is the worker lease. The scheduler (the Ω leader) expires a worker
//     only after its suspicion has aged past a grace period
//     (fd.Detector.SuspectedSince), releasing its Assigned/Running jobs
//     back to Pending.
//   - Retry: a failed or released attempt re-enters Pending with its
//     attempt count intact; the leader gates reassignment behind an
//     exponential, seeded-jitter backoff (RetryPolicy, amp.Backoff's
//     curve).
//   - Circuit breaker: an attempt that fails (or is lost to expiry) at
//     attempt == budget parks the job in Failed — the dead-letter state.
//     Poison jobs degrade to a bounded cost instead of a hot loop.
//   - Exactly-once: Complete/Fail are valid only when worker AND attempt
//     match the job's current assignment and the job is not terminal, so
//     a reassigned-then-reappearing worker's stale completion can never
//     apply a second effect.
//   - Proposals: every command is proposed once; internal/rsm re-sends it
//     until it is ordered. A submit lost in its replica's crash is the
//     client's to retry (the job ID dedups).
package jobq

import (
	"fmt"
	"slices"
	"sort"
)

// JobState is one position in the job lifecycle.
type JobState uint8

const (
	// Pending jobs await (re)assignment.
	Pending JobState = iota
	// Assigned jobs have a worker executing (or about to execute) the
	// current attempt.
	Assigned
	// Running is Assigned after a CmdStart, which only journals written
	// before runners stopped proposing it hold; every reader treats the
	// two alike.
	Running
	// Completed is terminal success; exactly one completion had effect.
	Completed
	// Failed is terminal: the dead-letter state for jobs whose retry
	// budget is exhausted (the poison-job circuit breaker).
	Failed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Assigned:
		return "assigned"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("jobstate(%d)", uint8(s))
}

// Terminal reports whether s is an end state.
func (s JobState) Terminal() bool { return s == Completed || s == Failed }

// CmdKind discriminates replicated queue commands.
type CmdKind uint8

const (
	// CmdSubmit enqueues a new job (idempotent by job ID: a duplicate
	// submit of an existing ID is rejected, so client retries are safe).
	// With Attempt 1 it carries a placement (Node.Submit): the job starts
	// Assigned to Worker if that worker is joined and holds fewer than Cap
	// jobs at that point of the total order, and Pending otherwise.
	CmdSubmit CmdKind = iota
	// CmdJoin marks a worker alive and eligible for assignment.
	CmdJoin
	// CmdLeave is a worker's voluntary departure; its jobs are released
	// like an expiry.
	CmdLeave
	// CmdAssign hands a Pending job to a worker, beginning attempt
	// job.Attempt+1: the scheduler's (Ω leader's) command for jobs no
	// placement took and for retries. Refused when the worker holds Cap jobs.
	CmdAssign
	// CmdStart marks the attempt executing (Assigned→Running). No runner
	// proposes it: a healthy job is submit, then complete or fail. It
	// keeps its value and apply arm so older journals still replay.
	CmdStart
	// CmdComplete reports attempt success. Worker+Attempt are the
	// idempotency token; a mismatch is a stale completion and is
	// rejected.
	CmdComplete
	// CmdFail reports attempt failure: back to Pending while budget
	// remains, Failed (dead-letter) once exhausted.
	CmdFail
	// CmdExpire is the scheduler's declaration that a worker's lease
	// lapsed (suspicion aged past the grace period): the worker is
	// removed and its jobs released.
	CmdExpire
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdSubmit:
		return "submit"
	case CmdJoin:
		return "join"
	case CmdLeave:
		return "leave"
	case CmdAssign:
		return "assign"
	case CmdStart:
		return "start"
	case CmdComplete:
		return "complete"
	case CmdFail:
		return "fail"
	case CmdExpire:
		return "expire"
	}
	return fmt.Sprintf("cmdkind(%d)", uint8(k))
}

// Cmd is one replicated job-queue command. It rides through consensus
// as rsm.Command{Op: "jobq", Val: Cmd{...}} — the rsm KV apply ignores
// the unknown op and the jobq layer interprets it in the apply hook it
// installs (rsm.WithApplyHook), so the queue needs no changes to the
// consensus core.
type Cmd struct {
	Kind    CmdKind
	Job     string // job ID (submit/assign/start/complete/fail)
	Worker  int    // worker ID (join/leave/expire/assign/start/complete/fail)
	Attempt int    // idempotency token: the attempt this command is about
	Cap     int    // submit/assign: the proposer's MaxPerWorker, checked at apply (0 on assign: unchecked)
	Budget  int    // submit: max attempts before dead-letter
	Payload any    // submit: opaque job payload
	Result  any    // complete: job result
	Err     string // fail: failure diagnosis
}

// Job is one job's replicated record.
type Job struct {
	ID      string
	Payload any
	Budget  int // max attempts before dead-letter
	State   JobState
	pos     int32 // index in State.order (here, in State's padding, the record stays 112 bytes)
	Attempt int   // attempts begun; while Assigned/Running, the current attempt number
	Worker  int   // current assignee (Assigned/Running), else -1
	Result  any
	Err     string // last failure diagnosis (dead-letter reason once Failed)
	DoneBy  int    // worker whose completion was accepted (-1 until Completed)
	Effects int    // completions that had effect — the exactly-once oracle checks ≤ 1
}

// Counters aggregate what the state machine has processed (replicated,
// so identical across replicas at equal apply points).
type Counters struct {
	Submitted   int // jobs accepted
	Assigns     int // attempts begun
	Starts      int // CmdStarts applied (0 unless replayed from an older journal)
	Completions int // completions accepted (= total effects)
	Retries     int // failed attempts returned to Pending
	Expiries    int // worker expirations (lease lapses + voluntary leaves)
	Released    int // assignments released by expiry/leave
	DeadLetters int // jobs parked in Failed
	Stale       int // stale/conflicting commands rejected by validation
}

// EvKind classifies what one applied command did.
type EvKind uint8

const (
	// EvNop: the command was rejected as invalid in the current state
	// (duplicate submit, assign to a dead worker, double assign, ...).
	EvNop EvKind = iota
	// EvStale: a Start/Complete/Fail whose worker+attempt token did not
	// match the job's current assignment — the exactly-once rejection.
	EvStale
	// EvSubmitted: a job was created — Assigned to Worker for Attempt 1
	// if its placement took (as on EvAssigned), else Worker -1, Attempt 0.
	EvSubmitted
	EvWorkerJoined
	EvWorkerLeft
	EvWorkerExpired
	EvAssigned
	EvStarted
	EvCompleted
	// EvRetried: a failed attempt returned the job to Pending.
	EvRetried
	// EvDeadLettered: the job's budget is exhausted; it is parked Failed.
	EvDeadLettered
)

// Event describes the effect of one applied Cmd; hosts (worker
// runners, RPC waiters, the scheduler's backoff gate) key off it.
type Event struct {
	Kind    EvKind
	Job     string
	Worker  int
	Attempt int
	// Released/Dead list jobs a worker expiry/leave returned to Pending
	// or dead-lettered, in submission order.
	Released []string
	Dead     []string
}

// State is the deterministic replicated scheduler state. It must only
// be mutated through Apply, with commands in the agreed total order;
// everything it computes is a pure function of that sequence.
type State struct {
	jobs    map[string]*Job
	order   []string // job IDs in submission (apply) order
	workers map[int]bool
	ctr     Counters
	// Derived, so that no scheduler read walks the history: the
	// Assigned+Running jobs per worker, and the Pending jobs as ascending
	// indices into order.
	load    map[int]int
	pending []int32
}

// NewState returns an empty queue state.
func NewState() *State {
	return &State{jobs: make(map[string]*Job), workers: make(map[int]bool), load: make(map[int]int)}
}

// hold moves j to Assigned at worker w for the given attempt.
func (st *State) hold(j *Job, w, attempt int) {
	j.State, j.Worker, j.Attempt = Assigned, w, attempt
	st.load[w]++
	st.ctr.Assigns++
}

// setPending takes j from its worker, if any, to Pending at its
// submission rank.
func (st *State) setPending(j *Job) {
	j.State, j.Worker = Pending, -1
	i, _ := slices.BinarySearch(st.pending, j.pos)
	st.pending = slices.Insert(st.pending, i, j.pos)
}

// Apply executes one command, validating it against the current state.
// Invalid commands (duplicates, stale tokens, races lost in the total
// order) are rejected identically at every replica and reported as
// EvNop/EvStale events.
func (st *State) Apply(c Cmd) Event {
	switch c.Kind {
	case CmdSubmit:
		if c.Job == "" {
			return Event{Kind: EvNop}
		}
		if _, ok := st.jobs[c.Job]; ok {
			return Event{Kind: EvNop, Job: c.Job} // duplicate submit: client retry
		}
		budget := c.Budget
		if budget < 1 {
			budget = 1
		}
		j := &Job{ID: c.Job, Payload: c.Payload, Budget: budget, Worker: -1, DoneBy: -1, pos: int32(len(st.order))}
		st.jobs[c.Job] = j
		st.order = append(st.order, c.Job)
		st.ctr.Submitted++
		if c.Attempt == 1 && st.workers[c.Worker] && st.load[c.Worker] < c.Cap {
			st.hold(j, c.Worker, 1)
			return Event{Kind: EvSubmitted, Job: c.Job, Worker: c.Worker, Attempt: 1}
		}
		st.setPending(j)
		return Event{Kind: EvSubmitted, Job: c.Job, Worker: -1}

	case CmdJoin:
		if st.workers[c.Worker] {
			return Event{Kind: EvNop, Worker: c.Worker}
		}
		st.workers[c.Worker] = true
		return Event{Kind: EvWorkerJoined, Worker: c.Worker}

	case CmdLeave, CmdExpire:
		if !st.workers[c.Worker] {
			return Event{Kind: EvNop, Worker: c.Worker} // already gone: duplicate expiry
		}
		delete(st.workers, c.Worker)
		delete(st.load, c.Worker)
		st.ctr.Expiries++
		ev := Event{Kind: EvWorkerExpired, Worker: c.Worker}
		if c.Kind == CmdLeave {
			ev.Kind = EvWorkerLeft
		}
		for _, id := range st.order {
			j := st.jobs[id]
			if (j.State != Assigned && j.State != Running) || j.Worker != c.Worker {
				continue
			}
			st.ctr.Released++
			j.Worker = -1
			if j.Attempt >= j.Budget {
				// The lost attempt was the last one in the budget: park it.
				j.State = Failed
				j.Err = fmt.Sprintf("worker %d lost during final attempt %d/%d", c.Worker, j.Attempt, j.Budget)
				st.ctr.DeadLetters++
				ev.Dead = append(ev.Dead, id)
			} else {
				st.setPending(j)
				ev.Released = append(ev.Released, id)
			}
		}
		return ev

	case CmdAssign:
		j, ok := st.jobs[c.Job]
		if !ok || j.State != Pending || !st.workers[c.Worker] || c.Cap > 0 && st.load[c.Worker] >= c.Cap ||
			c.Attempt != j.Attempt+1 || c.Attempt > j.Budget {
			return Event{Kind: EvNop, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
		}
		i, _ := slices.BinarySearch(st.pending, j.pos)
		st.pending = slices.Delete(st.pending, i, i+1)
		st.hold(j, c.Worker, c.Attempt)
		return Event{Kind: EvAssigned, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdStart:
		j, ok := st.jobs[c.Job]
		if !ok || j.State != Assigned || j.Worker != c.Worker || j.Attempt != c.Attempt {
			return st.stale(c)
		}
		j.State = Running
		st.ctr.Starts++
		return Event{Kind: EvStarted, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdComplete:
		j, ok := st.jobs[c.Job]
		if !ok || (j.State != Assigned && j.State != Running) ||
			j.Worker != c.Worker || j.Attempt != c.Attempt {
			// The idempotency rejection: the job is terminal, was
			// reassigned (different worker or attempt), or never assigned.
			return st.stale(c)
		}
		j.State, j.Worker = Completed, -1
		st.load[c.Worker]--
		j.Result = c.Result
		j.DoneBy = c.Worker
		j.Effects++
		st.ctr.Completions++
		return Event{Kind: EvCompleted, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdFail:
		j, ok := st.jobs[c.Job]
		if !ok || (j.State != Assigned && j.State != Running) ||
			j.Worker != c.Worker || j.Attempt != c.Attempt {
			return st.stale(c)
		}
		st.load[c.Worker]--
		j.Err = c.Err
		if j.Attempt >= j.Budget {
			j.State, j.Worker = Failed, -1
			st.ctr.DeadLetters++
			return Event{Kind: EvDeadLettered, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
		}
		st.setPending(j)
		st.ctr.Retries++
		return Event{Kind: EvRetried, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
	}
	return Event{Kind: EvNop}
}

// stale records and reports a stale-token rejection.
func (st *State) stale(c Cmd) Event {
	st.ctr.Stale++
	return Event{Kind: EvStale, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
}

// Job returns a copy of the job's record.
func (st *State) Job(id string) (Job, bool) {
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns copies of every job in submission order.
func (st *State) Jobs() []Job {
	out := make([]Job, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, *st.jobs[id])
	}
	return out
}

// Workers returns the live worker IDs, sorted.
func (st *State) Workers() []int {
	out := make([]int, 0, len(st.workers))
	for w := range st.workers {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Alive reports whether worker w is currently joined.
func (st *State) Alive(w int) bool { return st.workers[w] }

// Counters returns the aggregate counters.
func (st *State) Counters() Counters { return st.ctr }

// RegisterWire registers the queue's wire types with reg — required on
// every process exchanging jobq traffic (transport.Register) and before
// opening a journal that may hold jobq commands (gob.Register), since
// Cmd rides inside rsm.Command's `any` payload on both paths.
func RegisterWire(reg func(any)) {
	reg(Cmd{})
}
