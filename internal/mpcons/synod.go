package mpcons

import (
	"distbasics/internal/amp"
	"distbasics/internal/fd"
)

// Synod is single-decree Paxos ([42]) driven by an Ω failure detector —
// §5.3's indulgent consensus: the algorithm is safe no matter how Ω (and
// the network) behave, and terminates once Ω stabilizes on a correct
// leader. Every process is proposer, acceptor, and learner; only the
// current Ω leader runs ballots, realizing the paper's "some process must
// be more equal than the others" symmetry-breaking (§5.2). The deciding
// leader broadcasts the decision; a learner relays it once, only if Ω
// stops naming its sender, or asks for a lost copy (see OnTimer): n
// decide frames, not n².
type Synod struct {
	// Input is this process's proposal.
	Input any
	// InputFn, if set, supplies the proposal lazily at ballot time
	// (overrides Input). TO-broadcast uses it to propose the current
	// pending batch.
	InputFn func() any
	// Enabled, if set, gates ballot initiation: the leader only starts
	// ballots while Enabled() is true (acceptor/learner roles stay
	// active). TO-broadcast uses it to run slots in order.
	Enabled func() bool
	// Omega supplies the leader estimate (same Stack, separate slot).
	Omega *fd.Detector
	// OnDecide fires on decision.
	OnDecide DecideFn
	// LeaseHolder, if set, reports the read-lease holder this process is
	// currently bound to honor and when that binding lapses (see
	// fd.Detector.GrantHolder). While a holder h is live, the acceptor
	// refuses prepare/accept messages from every other proposer — that
	// refusal is exactly the promise that makes h's local reads
	// linearizable, since no rival ballot can assemble a quorum before
	// the lease expires. Refusing ballots never violates Paxos safety;
	// at worst it delays a rival leader by one lease TTL, and no more:
	// the proposer reads the same binding, sends no ballot its own
	// acceptor would refuse, and looks again at until; an acceptor bound
	// by a grant to another process says how long it stays bound, and
	// the proposer retries the moment that has passed (the first such
	// refusal since a ballot last completed; later ones keep the
	// back-off).
	LeaseHolder func(now amp.Time) (holder int, until amp.Time, ok bool)
	// OnAcceptorChange, if set, fires synchronously whenever the acceptor
	// triple (promised, acceptedBal, acceptedVal) changes — BEFORE the
	// corresponding promise/accepted reply is sent. Persisting the triple
	// at this point is what keeps Paxos safe across a crash-restart: an
	// acceptor that forgets a promise or an accepted value can let two
	// ballots choose different values. See rsm.Journal.
	OnAcceptorChange func(promised, acceptedBal int, acceptedVal any)

	n  int
	id int

	// Acceptor state.
	promised    int
	acceptedBal int
	acceptedVal any

	// Proposer state.
	ballot    int
	inBallot  bool
	phase     int // 1 or 2
	promises  map[int]promise
	accepteds map[int]bool
	propVal   any

	stalls int      // consecutive retries that found a ballot still inflight
	due    amp.Time // when the retry timer chain next runs (see OnTimer)

	decided    bool
	decidedVal any
	relayFrom  int  // the decision's sender while a relay is owed, else this process
	waited     bool // undecided at the previous OnTimer (see OnTimer)
}

type promise struct {
	bal int
	val any
}

// Synod message kinds.
type (
	synPrepare struct{ Bal int }
	synPromise struct {
		Bal         int
		AcceptedBal int
		AcceptedVal any
	}
	synAccept struct {
		Bal int
		Val any
	}
	synAccepted struct{ Bal int }
	// synReject refuses a ballot: one below Promised, or, when Bound >
	// 0, ballot Bal, for a lease that binds the acceptor to another
	// process Bound more ticks.
	synReject struct {
		Promised int
		Bal      int
		Bound    amp.Time
	}
	synDecide struct{ Val any }
	synAsk    struct{ Promised int } // asks for the decision; gob needs a field
)

// IsBallot reports whether msg is a proposer's ballot message (a prepare
// or an accept) rather than an acceptor's reply or a decision. A host
// that has already forgotten a decided instance answers a ballot with the
// decision — its sender is running consensus for a value it does not
// know — and drops everything else.
func IsBallot(msg amp.Message) bool {
	switch msg.(type) {
	case synPrepare, synAccept:
		return true
	}
	return false
}

const synodRetryTimer = 0

// NewSynod returns a Synod instance proposing input, using the given Ω.
func NewSynod(input any, omega *fd.Detector, onDecide DecideFn) *Synod {
	return &Synod{Input: input, Omega: omega, OnDecide: onDecide}
}

// Decided reports the decision state.
func (s *Synod) Decided() (any, bool) { return s.decidedVal, s.decided }

// AcceptorState returns the current acceptor triple (the state
// RestoreAcceptor reinstates). Snapshot capture reads it for every
// still-live instance so a truncated journal loses no promises.
func (s *Synod) AcceptorState() (promised, acceptedBal int, acceptedVal any) {
	return s.promised, s.acceptedBal, s.acceptedVal
}

// RestoreAcceptor reinstates journaled acceptor state after a restart.
// Must be called before the runtime starts delivering messages.
func (s *Synod) RestoreAcceptor(promised, acceptedBal int, acceptedVal any) {
	s.promised = promised
	s.acceptedBal = acceptedBal
	s.acceptedVal = acceptedVal
}

// Release drops the proposer-side quorum maps and upcall references so
// a decided, garbage-collected instance retains no more than its
// acceptor triple. A released instance must receive no further events
// (the owning multiplexer stops routing to it).
func (s *Synod) Release() {
	s.promises = nil
	s.accepteds = nil
	s.InputFn = nil
	s.Enabled = nil
	s.LeaseHolder = nil
	s.OnDecide = nil
	s.OnAcceptorChange = nil
}

// leaseBlocks reports whether a live read-lease forbids acting on
// ballot bal from proposer `from`, and if so refuses it. An acceptor
// bound by its grant to another process tells the proposer how long the
// grant lasts; one that holds the lease itself says nothing, since its
// own renewals keep extending it.
func (s *Synod) leaseBlocks(ctx amp.Context, from, bal int) bool {
	if s.LeaseHolder == nil {
		return false
	}
	now := ctx.Now()
	h, until, ok := s.LeaseHolder(now)
	if !ok || h == from {
		return false
	}
	if until > now {
		ctx.Send(from, synReject{Bal: bal, Bound: until - now})
	}
	return true
}

// leaseWait is the proposer's reading of leaseBlocks: how long this
// process's own acceptor stays bound to another leaseholder (0 = not
// bound). A ballot started inside that span can only stall: it is
// refused here and at every peer that granted the same lease.
func (s *Synod) leaseWait(ctx amp.Context) amp.Time {
	if s.LeaseHolder == nil {
		return 0
	}
	h, until, ok := s.LeaseHolder(ctx.Now())
	if !ok || h == s.id {
		return 0
	}
	return max(until-ctx.Now(), 1)
}

// acceptorChanged persists the acceptor triple via the hook, if any.
func (s *Synod) acceptorChanged() {
	if s.OnAcceptorChange != nil {
		s.OnAcceptorChange(s.promised, s.acceptedBal, s.acceptedVal)
	}
}

// Init implements amp.Component.
func (s *Synod) Init(ctx amp.Context) {
	s.n = ctx.N()
	s.id = ctx.ID()
	s.armRetry(ctx)
}

// leads reports whether this process should be running ballots for the
// instance: undecided, the Ω leader, and Enabled.
func (s *Synod) leads() bool {
	return !s.decided && s.Omega != nil && s.Omega.Leader() == s.id &&
		(s.Enabled == nil || s.Enabled())
}

// Kick starts the instance's first ballot in the caller's event-loop
// turn, if this process leads and no lease binds its acceptor to
// another holder, and reports whether it did. The host calls it on the
// events that can make that true — work arriving, a decision moving the
// window, Ω electing this process; later attempts are the retry timer's.
func (s *Synod) Kick(ctx amp.Context) bool {
	if s.ballot == 0 && s.leads() && s.leaseWait(ctx) == 0 {
		s.startBallot(ctx)
		return true
	}
	return false
}

// OnTimer implements amp.Component: the leader-retry loop. A leader
// bound by a lease it granted sends nothing and counts no stall: no
// ballot of its own is outstanding, so there is nothing to back off from.
// Once decided, it watches for the relay: the decision's sender may have
// crashed mid-broadcast, and a decided Ω leader runs no ballot, so the
// decision is relayed once Ω stops naming the sender, which otherwise
// needs no help. An undecided process that Ω does not name, undecided
// at the previous firing too, asks the leader for a decide a lossy link
// may have dropped. The loop is one chain: a timer that fires before the
// chain's due time was overtaken by a retry (see retryAt): it does nothing.
func (s *Synod) OnTimer(ctx amp.Context, id int) {
	if id != synodRetryTimer || ctx.Now() < s.due || (s.decided && s.relayFrom == s.id) {
		return
	}
	if s.decided && (s.Omega == nil || s.Omega.Leader() != s.relayFrom) {
		s.relayFrom = s.id
		ctx.Broadcast(synDecide{Val: s.decidedVal})
		return
	}
	if s.leads() && s.leaseWait(ctx) == 0 {
		if s.inBallot && s.stalls < synodMaxStalls {
			s.stalls++ // the previous ballot never completed: back off
		}
		s.startBallot(ctx)
	} else if !s.decided && s.waited && s.Omega != nil && s.Omega.Leader() != s.id {
		ctx.Send(s.Omega.Leader(), synAsk{Promised: s.promised})
	}
	s.waited = !s.decided
	s.armRetry(ctx)
}

// armRetry sets the next retry: one backed-off period from now, or the
// moment this process's grant to another leaseholder lapses if that
// comes first — the first instant a ballot from here can succeed.
func (s *Synod) armRetry(ctx amp.Context) {
	d := synodRetryPeriod << s.stalls
	if w := s.leaseWait(ctx); w > 0 && w < d {
		d = w
	}
	s.due = ctx.Now() + d
	ctx.SetTimer(d, synodRetryTimer)
}

// retryAt brings the retry chain forward to d ticks from now, if it is
// due later: the timer already armed then finds itself overtaken.
func (s *Synod) retryAt(ctx amp.Context, d amp.Time) {
	if now := ctx.Now(); now+d < s.due {
		s.due = now + d
		ctx.SetTimer(d, synodRetryTimer)
	}
}

// synodRetryPeriod is how often an undecided leader re-attempts a
// ballot, from one period after Init: the timer is the liveness
// fallback, not the start signal (a host that knows there is something
// to decide calls Kick; a standalone instance's first period lets Ω
// settle). Retries that abandon a still-inflight ballot back off
// exponentially, up to 16x: restarting ballots faster than replies
// return only floods the leader's inbound links with stale promises —
// a self-sustaining retry storm under lossy transports. One retry comes
// sooner: the first after a lease refusal, at the refuser's lapse; the
// back-off counts it, so the bound holds from the next one on.
const (
	synodRetryPeriod amp.Time = 40
	synodMaxStalls            = 4
)

func (s *Synod) startBallot(ctx amp.Context) {
	// Ballots are id+1 mod n classes, strictly increasing.
	next := s.ballot + s.n
	if next <= s.promised {
		next += ((s.promised-next)/s.n + 1) * s.n
	}
	if s.ballot == 0 {
		next = s.id + 1
		for next <= s.promised {
			next += s.n
		}
	}
	s.ballot = next
	s.inBallot = true
	s.phase = 1
	s.promises = make(map[int]promise)
	s.accepteds = make(map[int]bool)
	ctx.Broadcast(synPrepare{Bal: s.ballot})
}

// OnMessage implements amp.Component.
func (s *Synod) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	switch m := msg.(type) {
	case synPrepare:
		if s.leaseBlocks(ctx, from, m.Bal) {
			return
		}
		if m.Bal > s.promised {
			s.promised = m.Bal
			s.acceptorChanged()
			ctx.Send(from, synPromise{Bal: m.Bal, AcceptedBal: s.acceptedBal, AcceptedVal: s.acceptedVal})
		} else {
			ctx.Send(from, synReject{Promised: s.promised})
		}
	case synPromise:
		if !s.inBallot || s.phase != 1 || m.Bal != s.ballot {
			return
		}
		s.promises[from] = promise{bal: m.AcceptedBal, val: m.AcceptedVal}
		if len(s.promises) > s.n/2 {
			// Adopt the value accepted at the highest ballot, else our own.
			s.propVal = s.Input
			if s.InputFn != nil {
				s.propVal = s.InputFn()
			}
			best := 0
			for _, pr := range s.promises {
				if pr.bal > best {
					best = pr.bal
					s.propVal = pr.val
				}
			}
			s.phase = 2
			s.stalls = 0 // round trips are completing again
			ctx.Broadcast(synAccept{Bal: s.ballot, Val: s.propVal})
		}
	case synAccept:
		if s.leaseBlocks(ctx, from, m.Bal) {
			return
		}
		if m.Bal >= s.promised {
			s.promised = m.Bal
			s.acceptedBal = m.Bal
			s.acceptedVal = m.Val
			s.acceptorChanged()
			ctx.Send(from, synAccepted{Bal: m.Bal})
		} else {
			ctx.Send(from, synReject{Promised: s.promised})
		}
	case synAccepted:
		if !s.inBallot || s.phase != 2 || m.Bal != s.ballot {
			return
		}
		s.accepteds[from] = true
		if len(s.accepteds) > s.n/2 {
			s.inBallot = false
			ctx.Broadcast(synDecide{Val: s.propVal})
		}
	case synReject:
		switch {
		case !s.inBallot:
		case m.Bound > 0:
			// Refused for a lease another process holds there: a
			// quorum may still form without that acceptor, so the
			// ballot stays open, but if it has not completed when the
			// binding lapses the retry comes then, not a period later.
			// The refusal took a tick at least to get here (amp's least
			// delay), so the lapse is at most Bound−1 ticks off. Only
			// the first refusal since a ballot last completed (no
			// stalls) brings the chain forward: that is a failover's
			// ballot at its own grant's lapse. Later ones keep the
			// back-off, so a process that takes itself for leader while
			// the holder renews does not re-ballot every TTL.
			if m.Bal == s.ballot && s.stalls == 0 {
				s.retryAt(ctx, max(m.Bound-1, 1))
			}
		case m.Promised > s.ballot:
			s.inBallot = false // abandon; retry on the next timer tick
		}
	case synAsk:
		if s.decided {
			ctx.Send(from, synDecide{Val: s.decidedVal})
		}
	case synDecide:
		if s.decided {
			return
		}
		s.decided = true
		s.decidedVal = m.Val
		s.relayFrom = from // relayed only if orphaned (OnTimer)
		if s.OnDecide != nil {
			s.OnDecide(m.Val, ctx.Now())
		}
	}
}
