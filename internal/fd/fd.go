// Package fd implements the failure detectors of §5.3 of the paper:
// unreliable detectors that abstract underlying synchrony assumptions
// ([15], Chandra–Toueg), and in particular Ω — the weakest failure
// detector for consensus ([14]) — which provides an eventual-leader
// primitive: after some unknown time τ, all alive processes' leader
// variables contain the same correct process forever. Ω is the formal
// definition of the leader service used in Paxos ([42]).
//
// "Failure detectors can be seen as objects that abstract underlying
// synchrony assumptions" (§5.3), and the code says so literally: there
// is one heartbeat suspector, Detector — each process broadcasts ALIVE
// every Period; a peer is suspected when no heartbeat arrives within
// its current timeout; a heartbeat from a suspected peer retracts the
// suspicion — and a class is a rule for that timeout plus the output
// one reads off the suspect list (classes.go holds the named ones):
//
//	class  a peer's timeout                         read-out
//	P      Period+bound, never adapted              Suspects; FalseSuspicions stays 0
//	                                                exactly while the bound holds
//	◇P     Period+slack, the slack doubled on a     Suspects; FalseSuspicions stops
//	       false suspicion                          growing after GST
//	◇S     ◇P's                                     Trusted: some unsuspected id
//	Ω      InitialTimeout, +Period on a             Leader: the smallest unsuspected
//	       false suspicion                          id (and the leases of lease.go)
//
// Under partial synchrony (amp.GSTDelay) an adapted timeout eventually
// exceeds the post-GST bound, suspicions stabilize, and the suspector
// behaves as ◇P; Leader() = smallest non-suspected id then realizes Ω —
// for any row: a ◇S detector's Leader is the classical Ω-from-◇S
// reduction.
package fd

import (
	"distbasics/internal/amp"
)

// heartbeat is the ALIVE message. Seq identifies the broadcast round so
// a lease grant elicited by it can be timed from the moment this
// heartbeat was SENT (see lease.go) — timing from any later local event
// would over-extend the holder's belief past the granter's promise.
type heartbeat struct{ Seq int }

const (
	timerPeriod = 0 // broadcast heartbeat
	timerCheck  = 1 // suspicion sweep
)

// Detector is the heartbeat suspector every class shares. NewDetector's
// is the Ω row of the package table: eventually perfect, with the
// leader output and the read-leases the daemons run on.
type Detector struct {
	// Period is the heartbeat interval (default 8).
	Period amp.Time
	// InitialTimeout is the starting suspicion timeout (default 3*Period).
	InitialTimeout amp.Time
	// OnLeaderChange, if set, is invoked whenever Leader() changes, with
	// the new leader and the time.
	OnLeaderChange func(leader int, at amp.Time)
	// LeaseTTL, when > 0, enables the leader read-lease protocol (see
	// lease.go): followers grant the Ω leader time-bounded leases on its
	// heartbeats, and HoldsLease reports whether this process currently
	// holds a majority of them. 0 (the default) disables leasing — no
	// extra messages, no behavior change.
	LeaseTTL amp.Time
	// LeaseMargin is discounted from the HOLDER side of every grant's
	// validity: a grant elicited by a heartbeat sent at s is believed
	// until s+LeaseTTL-LeaseMargin, while the granter honors it until
	// receipt+LeaseTTL. The lease safety argument needs the holder's
	// belief to expire no later than the granter's promise; with
	// perfectly rate-synchronized clocks (the virtual-time harness) the
	// heartbeat's network delay alone guarantees that and 0 is correct.
	// Real clocks drift and real tick lengths jitter under load, so
	// real-clock deployments must set a margin covering the worst-case
	// rate skew over one TTL plus scheduling jitter. What a margin
	// covers is measured, not assumed: the scenario harness's lease
	// model slows the holder's clock (amp.Sim.ClockRate), and TTL/10 + 2
	// holds to 16% skew, TTL/20 to 8%, none to 4% (internal/kv's
	// hostLeaseMargin has the table). Must be < LeaseTTL to ever hold.
	LeaseMargin amp.Time
	// OnLeaseChange, if set, is invoked when HoldsLease transitions (as
	// observed at grant arrivals and the periodic suspicion sweep; an
	// expiry is reported at the sweep after it happens).
	OnLeaseChange func(held bool, at amp.Time)

	n           int
	id          int
	lastHeard   []amp.Time
	timeout     []amp.Time
	suspected   []bool
	suspectedAt []amp.Time // onset of the current suspicion (valid while suspected)
	leader      int
	changes     []LeaderChange

	// adapt is the class's timeout rule, the one thing the classes differ
	// in: a peer's timeout after a false suspicion, given the timeout
	// that proved too short.
	adapt func(d *Detector, timeout amp.Time) amp.Time
	// firstSweep delays the first suspicion sweep (0 means one Period,
	// like every later one); sweeps before the initial timeout could
	// have run out find nothing, so a class may skip them.
	firstSweep amp.Time
	// falseSuspicions counts retracted suspicions, lastFalse times the
	// latest: the accuracy read-out of the P and ◇P rows.
	falseSuspicions int
	lastFalse       amp.Time

	lease leaseState // leader read-lease machinery (see lease.go)
}

// LeaderChange records one leader transition (for stabilization-time
// measurements).
type LeaderChange struct {
	Leader int
	At     amp.Time
}

// NewDetector returns a detector for n processes.
func NewDetector(n int) *Detector {
	return &Detector{Period: 8, n: n, adapt: addStep}
}

// addStep is Ω's timeout rule: every false suspicion buys the peer one
// more Period.
func addStep(d *Detector, timeout amp.Time) amp.Time { return timeout + d.Period }

// Init implements amp.Component.
func (d *Detector) Init(ctx amp.Context) {
	d.id = ctx.ID()
	if d.InitialTimeout == 0 {
		d.InitialTimeout = 3 * d.Period
	}
	d.lastHeard = make([]amp.Time, d.n)
	d.timeout = make([]amp.Time, d.n)
	d.suspected = make([]bool, d.n)
	d.suspectedAt = make([]amp.Time, d.n)
	for i := range d.timeout {
		d.timeout[i] = d.InitialTimeout
		d.lastHeard[i] = ctx.Now()
	}
	d.leader = -1
	d.initLease()
	d.refreshLeader(ctx)
	d.sendHeartbeat(ctx)
	ctx.SetTimer(d.Period, timerPeriod)
	sweep := d.firstSweep
	if sweep == 0 {
		sweep = d.Period
	}
	ctx.SetTimer(sweep, timerCheck)
}

// OnMessage implements amp.Component.
func (d *Detector) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	switch m := msg.(type) {
	case heartbeat:
		d.lastHeard[from] = ctx.Now()
		if d.suspected[from] {
			// False suspicion: retract, and adapt as the class says.
			d.suspected[from] = false
			d.timeout[from] = d.adapt(d, d.timeout[from])
			d.falseSuspicions++
			d.lastFalse = ctx.Now()
			d.refreshLeader(ctx)
		}
		d.maybeGrant(ctx, from, m.Seq)
	case leaseGrant:
		d.onGrant(ctx, from, m.Seq)
	}
}

// sendHeartbeat broadcasts one ALIVE round, recording its send time for
// lease timing when leasing is enabled.
func (d *Detector) sendHeartbeat(ctx amp.Context) {
	seq := d.lease.hbSeq
	d.lease.hbSeq++
	if d.LeaseTTL > 0 {
		d.lease.hbSent[seq] = ctx.Now()
		delete(d.lease.hbSent, seq-leaseSeqWindow)
	}
	ctx.Broadcast(heartbeat{Seq: seq})
}

// OnTimer implements amp.Component.
func (d *Detector) OnTimer(ctx amp.Context, id int) {
	switch id {
	case timerPeriod:
		d.sendHeartbeat(ctx)
		ctx.SetTimer(d.Period, timerPeriod)
	case timerCheck:
		changed := false
		for i := 0; i < d.n; i++ {
			if i == d.id || d.suspected[i] {
				continue
			}
			if ctx.Now()-d.lastHeard[i] > d.timeout[i] {
				d.suspected[i] = true
				d.suspectedAt[i] = ctx.Now()
				changed = true
			}
		}
		if changed {
			d.refreshLeader(ctx)
		}
		d.updateLease(ctx)
		ctx.SetTimer(d.Period, timerCheck)
	}
}

func (d *Detector) refreshLeader(ctx amp.Context) {
	lead := d.id
	for i := 0; i < d.n; i++ {
		if !d.suspected[i] && i != d.id {
			if i < lead {
				lead = i
			}
		}
	}
	// Own id competes too (a process never suspects itself).
	if d.leader != lead {
		d.track(ctx.Now())
		d.leader = lead
		d.track(ctx.Now())
		d.changes = append(d.changes, LeaderChange{Leader: lead, At: ctx.Now()})
		if d.OnLeaderChange != nil {
			d.OnLeaderChange(lead, ctx.Now())
		}
	}
}

// Leader returns the Ω output: the current leader estimate.
func (d *Detector) Leader() int { return d.leader }

// IsSuspected reports whether peer i is currently suspected. Out-of-range
// ids (and calls before Init) report false.
func (d *Detector) IsSuspected(i int) bool {
	if i < 0 || i >= len(d.suspected) {
		return false
	}
	return d.suspected[i]
}

// SuspectedSince reports when the current, uninterrupted suspicion of
// peer i began. ok is false when i is not suspected (or out of range);
// a retracted-then-renewed suspicion restarts the clock. Lease-style
// liveness policies (internal/jobq's worker-expiry grace) use this to
// act only on suspicions that have aged past a grace period, so one
// heartbeat hiccup never costs a worker its assignments.
func (d *Detector) SuspectedSince(i int) (amp.Time, bool) {
	if i < 0 || i >= len(d.suspected) || !d.suspected[i] {
		return 0, false
	}
	return d.suspectedAt[i], true
}

// Suspects returns a copy of the current suspicion vector.
func (d *Detector) Suspects() []bool {
	out := make([]bool, d.n)
	copy(out, d.suspected)
	return out
}

// FalseSuspicions counts the suspicions retracted so far (a suspected
// peer spoke again): P's accuracy read-out, and on a live cluster what
// a too-short timeout costs.
func (d *Detector) FalseSuspicions() int { return d.falseSuspicions }

// Changes returns the leader-change history (for stabilization analysis).
func (d *Detector) Changes() []LeaderChange {
	out := make([]LeaderChange, len(d.changes))
	copy(out, d.changes)
	return out
}

// StabilizationTime returns the time of the last leader change, i.e. the
// earliest τ after which this process's leader output was constant, and
// that final leader.
func (d *Detector) StabilizationTime() (amp.Time, int) {
	if len(d.changes) == 0 {
		return 0, d.leader
	}
	last := d.changes[len(d.changes)-1]
	return last.At, last.Leader
}
