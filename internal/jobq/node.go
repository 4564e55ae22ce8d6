package jobq

import (
	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/splitmix"
)

// Op is the rsm.Command.Op under which queue commands ride. The rsm KV
// apply ignores unknown ops, so jobq commands coexist with put/del in
// the same replica group without touching the consensus core.
const Op = "jobq"

// Config tunes one queue replica. Zero values take the defaults.
type Config struct {
	// Grace is how long a worker must stay CONTINUOUSLY suspected before
	// the scheduler declares its lease lapsed and releases its jobs
	// (default 400 ticks, 800ms at the daemons' 2ms tick; a time, not a
	// count of heartbeats). Too short and a network hiccup
	// double-executes work (safe — the attempt token rejects one effect —
	// but wasteful); too long and a crashed worker's jobs stall for the
	// full grace.
	Grace amp.Time
	// MaxPerWorker caps concurrent assignments per worker (default 4).
	MaxPerWorker int
	// StepEvery is the period of the fallback pulse hosts drive Step
	// with (default 50). The healthy path does not wait for it: the
	// leader runs a pass whenever an applied command changes what is
	// schedulable (see onApply). The pulse serves what no apply announces:
	// a back-off running out, a suspicion aging past Grace. A proposal
	// is never made twice: internal/rsm re-sends it until it is ordered.
	StepEvery amp.Time
	// Retry is the reassignment backoff policy.
	Retry RetryPolicy
}

func (c Config) withDefaults() Config {
	if c.Grace <= 0 {
		c.Grace = 400
	}
	if c.MaxPerWorker <= 0 {
		c.MaxPerWorker = 4
	}
	if c.StepEvery <= 0 {
		c.StepEvery = 50
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Node is one job-queue replica: an rsm replica whose apply stream
// feeds the queue State, plus the scheduler driver that the current Ω
// leader runs (Step). Everything here executes inside the replica's
// event loop (the amp.Sim or transport.Runtime actor), so none of it
// needs locking; hosts reach it via Sim.Schedule / Runtime.Do.
type Node struct {
	RSM *rsm.Node

	cfg  Config
	st   *State
	subs []func(ev Event, e rsm.Entry, at amp.Time)

	// eligibleAt is the leader-local backoff gate: job ID → earliest
	// reassignment time on THIS replica's clock. Every replica tracks it
	// (cheap) so whichever replica becomes leader enforces backoff.
	eligibleAt map[string]amp.Time
	// assigning (job → worker) and expiring (by worker) hold this
	// replica's proposals — the leader's assigns and expiries, and any
	// replica's placements (Submit) — until they apply, so each is made
	// once, and so a choice of worker counts the jobs proposed here,
	// which the replicated state does not show yet, against its cap.
	assigning map[string]int
	expiring  map[int]bool
	rng       splitmix.Source
	// placed is Runner.startEarly, told of each new job Submit places here.
	placed func(c Cmd)
}

// New builds a queue replica for an n-replica group. The rsm options
// are passed through (journal, recovery, batching...); the apply hook
// is installed via rsm.WithApplyHook so a journal recovery replays the
// queue state before the node ever serves traffic.
func New(n int, cfg Config, opts ...rsm.NodeOption) *Node {
	jn := &Node{
		cfg:        cfg.withDefaults(),
		st:         NewState(),
		eligibleAt: make(map[string]amp.Time),
		assigning:  make(map[string]int),
		expiring:   make(map[int]bool),
	}
	jn.rng = splitmix.New(uint64(jn.cfg.Retry.Seed))
	opts = append(opts, rsm.WithApplyHook(jn.onApply), rsm.WithSnapshotter(jn))
	jn.RSM = rsm.NewNode(n, opts...)
	return jn
}

// Ctx returns the context for Schedule/Do-driven proposals.
func (jn *Node) Ctx() amp.Context { return jn.RSM.Ctx() }

// State exposes the replicated queue state. Read it only inside the
// event loop (or after the simulation has stopped).
func (jn *Node) State() *State { return jn.st }

// Config returns the effective (defaulted) configuration.
func (jn *Node) Config() Config { return jn.cfg }

// Subscribe registers an event observer, fired inside the event loop
// after each applied queue command — in subscription order, which hosts
// keep deterministic by subscribing at construction time.
func (jn *Node) Subscribe(fn func(ev Event, e rsm.Entry, at amp.Time)) {
	jn.subs = append(jn.subs, fn)
}

// Propose TO-broadcasts one queue command from this replica. Must run
// inside the event loop.
func (jn *Node) Propose(ctx amp.Context, c Cmd) rbcast.MsgID {
	return jn.RSM.Submit(ctx, rsm.Command{Op: Op, Val: c})
}

// Submit TO-broadcasts a new job (budget attempts before it dead-letters)
// with this replica's choice of worker for its first attempt: the
// least-loaded joined worker it does not suspect that has room under
// MaxPerWorker, itself on ties. Apply checks the choice (see CmdSubmit);
// a job it refuses is the scheduler's. Must run inside the event loop.
func (jn *Node) Submit(ctx amp.Context, job string, budget int, payload any) rbcast.MsgID {
	c := Cmd{Kind: CmdSubmit, Job: job, Budget: budget, Payload: payload}
	if w := leastLoaded(jn.candidates(ctx), jn.cfg.MaxPerWorker, ctx.ID()); w != nil {
		jn.assigning[job] = w.id
		c.Worker, c.Attempt, c.Cap = w.id, 1, jn.cfg.MaxPerWorker
	}
	if _, known := jn.st.jobs[job]; !known && c.Attempt == 1 && c.Worker == ctx.ID() && jn.placed != nil {
		jn.placed(c)
	}
	return jn.Propose(ctx, c)
}

// onApply consumes the replica's totally-ordered entry stream (and the
// recovery replay, via rsm.WithApplyHook): queue commands mutate the
// State; the leader-local backoff gate and proposal dedup are updated
// from the resulting event; subscribers run; and when the event changed
// what is schedulable — a job or a worker arrived, or a worker's
// capacity came free — the scheduler runs one pass in this same turn.
// That pass proposes from inside the rsm's delivery loop: the mux opens
// the next slot before the deciding slot's own bookkeeping has finished.
// The TO layer has advanced its decide frontier and recorded the batch
// by then, so the nested call sees a consistent window; proposals only
// queue messages, never re-enter apply.
func (jn *Node) onApply(e rsm.Entry, at amp.Time) {
	cmd, ok := e.Payload.(rsm.Command)
	if !ok || cmd.Op != Op {
		return
	}
	jc, ok := cmd.Val.(Cmd)
	if !ok {
		return
	}
	ev := jn.st.Apply(jc)
	// An applied submit or assign settles what this replica proposed for
	// the job, and an applied expiry for the worker, refused or not: an
	// entry left behind would block the job (or the worker's expiry).
	if jc.Kind == CmdSubmit || ev.Kind == EvAssigned || jc.Kind == CmdAssign && jn.assigning[jc.Job] == jc.Worker {
		delete(jn.assigning, jc.Job)
	}
	if jc.Kind == CmdExpire {
		delete(jn.expiring, jc.Worker)
	}
	switch ev.Kind {
	case EvAssigned:
		delete(jn.eligibleAt, ev.Job)
	case EvRetried:
		// The attempt failed on its merits: exponential backoff.
		jn.eligibleAt[ev.Job] = at + jn.cfg.Retry.Backoff(ev.Attempt, &jn.rng)
	case EvCompleted, EvDeadLettered:
		delete(jn.eligibleAt, ev.Job)
	case EvWorkerExpired, EvWorkerLeft:
		// Released jobs lost their worker, not the work: one base delay
		// (jittered), not the exponential curve — expiry is the lease's
		// fault, not the job's.
		for _, id := range ev.Released {
			jn.eligibleAt[id] = at + jn.cfg.Retry.Backoff(1, &jn.rng)
		}
	}
	for _, fn := range jn.subs {
		fn(ev, e, at)
	}
	switch ev.Kind {
	case EvSubmitted, EvWorkerJoined, EvCompleted, EvRetried, EvDeadLettered, EvWorkerExpired, EvWorkerLeft:
		if jn.RSM != nil { // nil during the recovery replay inside rsm.NewNode
			jn.Step(jn.Ctx())
		}
	}
}

// Step runs one scheduler pass. onApply runs it when the replicated
// state changes; hosts also call it every StepEvery on every replica
// (Sim.Schedule loop or clock.AfterFunc + Runtime.Do) as the fallback
// for what only the passage of time makes schedulable. Only the current
// Ω leader acts, and nothing it proposes is trusted — apply-time
// validation makes stale or duplicate proposals harmless, so leadership
// flaps and split brains during partitions cost traffic, never safety.
func (jn *Node) Step(ctx amp.Context) {
	if jn.RSM.Omega.Leader() != ctx.ID() {
		return
	}
	now := ctx.Now()
	jn.expireWorkers(ctx, now)
	jn.assign(ctx, now)
}

// expireWorkers proposes CmdExpire for every joined worker whose
// suspicion has aged past the grace period — the lease-lapse half of
// the liveness policy. The detector's adaptive timeout is the lease;
// Grace is the slack that keeps one late heartbeat from costing a
// worker its assignments.
func (jn *Node) expireWorkers(ctx amp.Context, now amp.Time) {
	for _, w := range jn.st.Workers() {
		if w == ctx.ID() {
			continue // never self-expire: a leader does not suspect itself
		}
		since, ok := jn.RSM.Omega.SuspectedSince(w)
		if !ok || now-since < jn.cfg.Grace {
			continue
		}
		if jn.expiring[w] {
			continue
		}
		jn.expiring[w] = true
		jn.Propose(ctx, Cmd{Kind: CmdExpire, Worker: w})
	}
}

// candidate is a worker a job may go to, with the jobs it holds.
type candidate struct{ id, load int }

// candidates lists, by id, the joined workers this replica does not
// suspect with their load: what the replicated state shows plus what was
// proposed here and is not yet decided — several choices are made per
// consensus round trip, and each would otherwise see the same idle worker.
func (jn *Node) candidates(ctx amp.Context) []candidate {
	proposed := make(map[int]int)
	for _, w := range jn.assigning {
		proposed[w]++
	}
	var cands []candidate
	for _, w := range jn.st.Workers() {
		if w == ctx.ID() || !jn.RSM.Omega.IsSuspected(w) { // joined is the queue's word, alive the detector's
			cands = append(cands, candidate{id: w, load: jn.st.load[w] + proposed[w]})
		}
	}
	return cands
}

// leastLoaded picks the candidate with the fewest jobs among those under
// limit — prefer on ties, else the smallest id — or nil if all are full.
func leastLoaded(cands []candidate, limit, prefer int) *candidate {
	var best *candidate
	for i := range cands {
		if c := &cands[i]; c.load < limit && (best == nil || c.load < best.load || c.load == best.load && c.id == prefer) {
			best = c
		}
	}
	return best
}

// assign hands eligible Pending jobs to the least-loaded live,
// unsuspected workers, oldest submission first, respecting the
// per-worker cap and the backoff gate.
func (jn *Node) assign(ctx amp.Context, now amp.Time) {
	if len(jn.st.pending) == 0 {
		return
	}
	cands := jn.candidates(ctx)
	for _, pos := range jn.st.pending {
		id := jn.st.order[pos]
		if jn.eligibleAt[id] > now {
			continue
		}
		if _, ok := jn.assigning[id]; ok {
			continue
		}
		best := leastLoaded(cands, jn.cfg.MaxPerWorker, -1)
		if best == nil {
			break // all workers full; retry next Step
		}
		jn.assigning[id] = best.id
		jn.Propose(ctx, Cmd{Kind: CmdAssign, Job: id, Worker: best.id, Attempt: jn.st.jobs[id].Attempt + 1, Cap: jn.cfg.MaxPerWorker})
		best.load++
	}
}
