package fd

import (
	"math"

	"distbasics/internal/amp"
)

// Leader read-leases on top of Ω.
//
// A lease lets the current leader serve reads from its local state
// without running consensus for them: while the lease is held, no rival
// proposer can assemble a quorum, so no write the leader has not seen
// can commit. The protocol is grant-based and entirely piggybacked on
// the detector's heartbeats:
//
//   - Every heartbeat carries a sequence number, and the sender records
//     when each was sent.
//   - A process that receives a heartbeat FROM THE PROCESS IT CURRENTLY
//     CONSIDERS LEADER replies with a grant echoing the sequence number
//     — a promise to regard the sender as the exclusive leaseholder for
//     the next LeaseTTL ticks. Grants are strictly sequential per
//     granter: a new grant to a DIFFERENT process is withheld until the
//     previous grant has expired.
//   - The leader, on receiving a grant, times its validity from the
//     moment the eliciting heartbeat was SENT (the start of the round
//     trip), further discounted by LeaseMargin. The granter honors it
//     from the later moment the heartbeat was received, so the holder's
//     belief expires before the granter's promise whenever clocks are
//     rate-synchronized (exact in the virtual-time harness; real-clock
//     runtimes must cover their drift and tick jitter with LeaseMargin).
//   - HoldsLease: the process believes it is leader AND holds unexpired
//     grants from a majority (itself included). Issuing a grant to
//     another process renounces any grants held — without that, a
//     leadership flap could let two processes count overlapping
//     majorities. The self vote is renounced for the full lifetime of a
//     grant to another process, not just at issuance: counting self
//     while a live promise to a rival is outstanding would let this
//     process appear in two "majorities" at once (its own implicit one
//     and the rival's granted one), which is exactly the overlap the
//     sequential-grant rule exists to prevent.
//
// Enforcement is the acceptor's job, not the detector's: consensus
// acceptors consult GrantHolder and refuse ballot messages from any
// other proposer while a grant is live (see mpcons.Synod.LeaseHolder).
// Refusing ballots never violates Paxos safety; at worst it delays a
// rival leader by one TTL — exactly one: the rival reads its own grant's
// expiry from GrantHolder and runs its first ballot the tick it lapses,
// not ballots into the lease and a back-off past its end; a granter that
// heard the holder later, and so is bound a little longer, answers that
// ballot with the ticks its grant has left, and the rival retries then.
// A leader that loses its lease (or never had one) orders reads through
// consensus.

// leaseGrant is the follower's time-bounded leadership promise; Seq
// echoes the eliciting heartbeat.
type leaseGrant struct{ Seq int }

// leaseSeqWindow bounds the heartbeat send-time memory: a grant
// answering a heartbeat more than this many rounds old is discarded
// (its remaining validity would be negligible anyway).
const leaseSeqWindow = 8

// leaseState is the per-detector lease bookkeeping.
type leaseState struct {
	hbSeq  int              // next heartbeat sequence number
	hbSent map[int]amp.Time // send times of recent heartbeats

	grantTo    int      // process we currently have a grant out to (-1 none)
	grantUntil amp.Time // when that grant expires (granter-side promise)

	grantExp []amp.Time // per-peer expiry of grants received (holder side)
	held     bool       // last observed HoldsLease, for OnLeaseChange

	// The current unbroken run of HoldsLease, tracked exactly: between
	// two changes of the state above only expiries and selfCounts' lapse
	// move HoldsLease, so each change first accounts for the interval
	// since the last one (see track).
	streak  bool     // HoldsLease held at every tick since `since`
	since   amp.Time // start of that run (valid while streak)
	tracked amp.Time // the time the run is accounted up to
}

// initLease is called from Detector.Init.
func (d *Detector) initLease() {
	d.lease.hbSent = make(map[int]amp.Time)
	d.lease.grantTo = -1
	d.lease.grantExp = make([]amp.Time, d.n)
}

// maybeGrant issues or refreshes a lease grant for a heartbeat from the
// process this detector currently follows as leader. Sequential-grant
// rule: never two live grants to different processes.
func (d *Detector) maybeGrant(ctx amp.Context, from, seq int) {
	if d.LeaseTTL <= 0 || from == d.id || from != d.leader {
		return
	}
	now := ctx.Now()
	if d.lease.grantTo != from && now < d.lease.grantUntil {
		return // an earlier grant to someone else is still live
	}
	d.track(now)
	if d.lease.grantTo != from {
		// Granting renounces any lease we hold (or could claim from
		// grants received while we led).
		for i := range d.lease.grantExp {
			d.lease.grantExp[i] = 0
		}
	}
	d.lease.grantTo = from
	d.lease.grantUntil = now + d.LeaseTTL
	d.track(now)
	ctx.Send(from, leaseGrant{Seq: seq})
	d.updateLease(ctx)
}

// onGrant records a received grant, timed from the eliciting
// heartbeat's send.
func (d *Detector) onGrant(ctx amp.Context, from, seq int) {
	if d.LeaseTTL <= 0 || from < 0 || from >= d.n {
		return
	}
	sent, ok := d.lease.hbSent[seq]
	if !ok {
		return // too old to matter
	}
	// The holder-side belief is discounted by LeaseMargin so that clock
	// rate skew and tick jitter cannot stretch it past the granter's
	// promise (see the Detector field doc).
	if exp := sent + d.LeaseTTL - d.LeaseMargin; exp > d.lease.grantExp[from] {
		d.track(ctx.Now())
		d.lease.grantExp[from] = exp
		d.track(ctx.Now())
	}
	d.updateLease(ctx)
}

// HoldsLease reports whether this process holds the leader read-lease
// at time now: it believes itself leader and holds unexpired grants
// from a majority (counting itself). The caller may serve linearizable
// reads from local state while this is true, PROVIDED acceptors enforce
// the grants (mpcons.Synod.LeaseHolder); otherwise it is only a
// bounded-staleness hint.
func (d *Detector) HoldsLease(now amp.Time) bool {
	if d.LeaseTTL <= 0 || d.leader != d.id || d.lease.grantExp == nil {
		return false
	}
	cnt := 0
	if d.selfCounts(now) {
		cnt = 1
	}
	for i, exp := range d.lease.grantExp {
		if i != d.id && exp > now {
			cnt++
		}
	}
	return cnt > d.n/2
}

// selfCounts reports whether this process may count its own vote toward
// a lease majority: only while it has no live grant out to another
// process. A grant is a promise to regard its recipient as the
// exclusive leaseholder, and that promise binds this process's own vote
// for the grant's full lifetime — not only at issuance, when grantExp
// is zeroed. Without this, a process that regained leadership and fresh
// peer grants while an old promise was still live could complete a
// second majority overlapping the promisee's.
func (d *Detector) selfCounts(now amp.Time) bool { return now >= d.selfFrom() }

// selfFrom is when selfCounts starts to hold: the expiry of a grant out
// to another process, or always when there is none.
func (d *Detector) selfFrom() amp.Time {
	if d.lease.grantTo >= 0 && d.lease.grantTo != d.id {
		return d.lease.grantUntil
	}
	return math.MinInt64
}

// LeaseSince reports when the current unbroken run of HoldsLease began,
// if HoldsLease holds at now (which must not precede the last event
// the detector handled). A holder whose belief lapsed, even for one
// tick, starts a new run: in the gap a rival may have committed writes
// it has not seen, so what it knew before proves nothing now.
func (d *Detector) LeaseSince(now amp.Time) (amp.Time, bool) {
	if d.LeaseTTL <= 0 || d.lease.grantExp == nil {
		return 0, false
	}
	d.track(now)
	return d.lease.since, d.lease.streak
}

// track accounts for HoldsLease over (tracked, now] under the lease
// state as it stands, then at now itself. Every change of that state
// (leader, grants out, grants in) calls it before and after. Between
// changes HoldsLease(x) is exactly selfFrom <= x < peersUntil: self
// counts from the lapse of a grant out to another process, and the
// peers' count stays a majority until the n/2-th latest grant expires.
func (d *Detector) track(now amp.Time) {
	if d.LeaseTTL <= 0 || now < d.lease.tracked {
		return
	}
	from := d.lease.tracked + 1
	d.lease.tracked = now
	if d.leader != d.id {
		d.lease.streak = false
		return
	}
	selfFrom := d.selfFrom()
	peersUntil := amp.Time(math.MaxInt64)
	if need := d.n / 2; need > 0 {
		peersUntil = math.MinInt64
		for i, e := range d.lease.grantExp {
			later := 0
			for j, f := range d.lease.grantExp {
				if j != d.id && f >= e {
					later++
				}
			}
			if i != d.id && later >= need {
				peersUntil = max(peersUntil, e)
			}
		}
	}
	switch {
	case from > now: // the state changed at now: re-read now alone
		if now < selfFrom || now >= peersUntil {
			d.lease.streak = false
		} else if !d.lease.streak {
			d.lease.streak, d.lease.since = true, now
		}
	case d.lease.streak && selfFrom <= from && peersUntil > now:
		// unbroken since the last account
	default:
		start := max(selfFrom, from)
		d.lease.streak = start <= now && peersUntil > now
		d.lease.since = start
	}
}

// GrantHolder reports the process this detector is currently bound to
// honor as leaseholder, if any, and until when: the process it granted
// to (until the grant expires, regardless of later leader changes), or
// itself while it holds the lease. Acceptors use this to ignore rival
// ballots, a proposer to wait out its own promise. A live grant to
// another process takes precedence over any self claim — the promise
// binds this process's acceptor even if it believes it has since
// reassembled a lease of its own. until is the granter-side expiry of
// a grant to another process; a self-held lease reports 0.
func (d *Detector) GrantHolder(now amp.Time) (holder int, until amp.Time, ok bool) {
	if d.LeaseTTL <= 0 {
		return -1, 0, false
	}
	if d.lease.grantTo >= 0 && d.lease.grantTo != d.id && now < d.lease.grantUntil {
		return d.lease.grantTo, d.lease.grantUntil, true
	}
	if d.HoldsLease(now) {
		return d.id, 0, true
	}
	return -1, 0, false
}

// updateLease fires OnLeaseChange on HoldsLease transitions. Called at
// grant issuance/arrival and from the periodic suspicion sweep (which
// is what eventually observes a passive expiry).
func (d *Detector) updateLease(ctx amp.Context) {
	if d.LeaseTTL <= 0 {
		return
	}
	held := d.HoldsLease(ctx.Now())
	if held != d.lease.held {
		d.lease.held = held
		if d.OnLeaseChange != nil {
			d.OnLeaseChange(held, ctx.Now())
		}
	}
}
