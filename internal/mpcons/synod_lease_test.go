package mpcons

import (
	"math/rand"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/fd"
)

// probeCtx is process 0 of 3 with a hand-set clock: it records what the
// Synod broadcasts and the delay of every timer it arms.
type probeCtx struct {
	now      amp.Time
	prepares []amp.Time // times a synPrepare was broadcast
	armed    []amp.Time // delays passed to SetTimer, in order
}

func (p *probeCtx) ID() int                    { return 0 }
func (p *probeCtx) N() int                     { return 3 }
func (p *probeCtx) Now() amp.Time              { return p.now }
func (p *probeCtx) Send(int, amp.Message)      {}
func (p *probeCtx) SetTimer(d amp.Time, _ int) { p.armed = append(p.armed, d) }
func (p *probeCtx) Rand() *rand.Rand           { return rand.New(rand.NewSource(1)) }
func (p *probeCtx) Halt()                      {}
func (p *probeCtx) Broadcast(msg amp.Message) {
	if _, ok := msg.(synPrepare); ok {
		p.prepares = append(p.prepares, p.now)
	}
}

// fire advances the clock by the most recently armed delay and runs the
// retry timer, as the one-timer-chain host would.
func (p *probeCtx) fire(s *Synod) {
	p.now += p.armed[len(p.armed)-1]
	s.OnTimer(p, synodRetryTimer)
}

// TestSynodWaitsOutOwnLeaseGrant: a leader whose own acceptor is bound
// to another leaseholder sends no ballot into the lease (its own
// acceptor and every peer that granted would drop it), counts no stall
// for the ballots it did not send, and retries at the tick the grant
// lapses — not a backed-off period later. The stalls of ballots that
// really went unanswered afterwards still back off 1x, 2x, ... 16x.
func TestSynodWaitsOutOwnLeaseGrant(t *testing.T) {
	const lapse = 100
	s := &Synod{
		Input: "v",
		Omega: fd.NewDetector(3), // never started: Leader() is process 0, this one
		LeaseHolder: func(now amp.Time) (int, amp.Time, bool) {
			return 1, lapse, now < lapse
		},
	}
	ctx := &probeCtx{}
	s.Init(ctx)
	s.Kick(ctx) // work arrives at once: refused by the lease, silently
	for ctx.now < lapse {
		if len(ctx.prepares) != 0 {
			t.Fatalf("synPrepare broadcast at %v, while this process's grant to 1 is live until %d", ctx.prepares, lapse)
		}
		ctx.fire(s)
	}
	if len(ctx.prepares) != 1 || ctx.prepares[0] != lapse {
		t.Fatalf("first synPrepare at %v, want exactly at the lapse %d (timers armed: %v)", ctx.prepares, lapse, ctx.armed)
	}
	if s.stalls != 0 {
		t.Fatalf("%d stalls counted for ballots the lease kept from being sent", s.stalls)
	}
	// Nobody answers from here on: genuine stalls, genuine back-off.
	ctx.armed = ctx.armed[len(ctx.armed)-1:]
	for i := 0; i < 6; i++ {
		ctx.fire(s)
	}
	want := []amp.Time{40, 80, 160, 320, 640, 640, 640}
	for i, d := range want {
		if ctx.armed[i] != d {
			t.Fatalf("retry delays after the lapse %v, want %v", ctx.armed, want)
		}
	}
	if len(ctx.prepares) != 7 {
		t.Fatalf("%d ballots started, want 7 (one per retry)", len(ctx.prepares))
	}
}

// TestSynodKickStartsFirstBallotOnly: Kick starts the first ballot in
// the caller's turn; once a ballot exists every further attempt is the
// retry timer's, so repeated kicks (one per arriving command) cannot
// become a ballot storm.
func TestSynodKickStartsFirstBallotOnly(t *testing.T) {
	s := &Synod{Input: "v", Omega: fd.NewDetector(3)}
	ctx := &probeCtx{}
	s.Init(ctx)
	if ctx.armed[0] != 40 {
		t.Fatalf("first retry armed %d ticks out, want synodRetryPeriod 40", ctx.armed[0])
	}
	s.Kick(ctx)
	s.Kick(ctx)
	s.OnMessage(ctx, 1, synReject{Promised: 99}) // ballot abandoned
	s.Kick(ctx)
	if len(ctx.prepares) != 1 || ctx.prepares[0] != 0 {
		t.Fatalf("synPrepare at %v, want one, in the turn of the first Kick", ctx.prepares)
	}
}

// TestSynodLeaseRefusalBringsRetryForward: an acceptor's refusal for a
// lease it is bound to elsewhere moves the proposer's one retry chain
// to the binding's lapse (a tick early: the refusal spent at least one
// on the wire), and the timer it overtook does nothing when it fires.
// A refusal of the retry's ballot moves nothing: that retry counted a
// stall, and the backed-off chain stands.
func TestSynodLeaseRefusalBringsRetryForward(t *testing.T) {
	s := &Synod{Input: "v", Omega: fd.NewDetector(3)}
	ctx := &probeCtx{}
	s.Init(ctx) // retry due at 40
	s.Kick(ctx) // ballot 1 at 0
	ctx.now = 2
	s.OnMessage(ctx, 2, synReject{Bal: s.ballot + 3, Bound: 9}) // another ballot's: ignored
	s.OnMessage(ctx, 2, synReject{Bal: s.ballot, Bound: 9})     // bound until 11
	if got := ctx.armed[len(ctx.armed)-1]; len(ctx.armed) != 2 || got != 8 {
		t.Fatalf("timers armed %v, want the retry brought forward to 8 ticks from the refusal", ctx.armed)
	}
	for _, now := range []amp.Time{10, 40} { // the new chain's retry, then the overtaken timer
		ctx.now = now
		s.OnTimer(ctx, synodRetryTimer)
	}
	if len(ctx.prepares) != 2 || ctx.prepares[1] != 10 {
		t.Fatalf("synPrepare at %v, want [0 10]: one ballot at the lapse and none from the overtaken timer", ctx.prepares)
	}
	ctx.now = 41
	armed := len(ctx.armed)
	s.OnMessage(ctx, 2, synReject{Bal: s.ballot, Bound: 9})
	if len(ctx.armed) != armed || ctx.armed[armed-1] != 80 {
		t.Fatalf("timers armed %v after a second refusal, want the backed-off 80 from the retry at 10 and nothing after it", ctx.armed)
	}
}

// TestSynodSuccessorWaitsOutLateGranterOnly: three leased Synod
// processes, holder 0 crashes, and survivor 2 hears its heartbeats lag
// ticks after survivor 1 does, so 2 stays bound to the dead holder that
// much longer than 1. Successor 1 runs its first ballot when its own
// grant lapses; 2 refuses it and says for how long it is still bound,
// and 1 retries then, at most a tick after the lapse. The decision
// comes a ballot's five hops after that — not a retry period (40 ticks)
// later, as when 2 dropped the ballot unanswered — at every crash phase
// of a heartbeat period.
func TestSynodSuccessorWaitsOutLateGranterOnly(t *testing.T) {
	const period, ttl, base = 10, 50, 500
	for lag := amp.Time(0); lag <= 3; lag++ {
		for crashAt := amp.Time(base); crashAt < base+period; crashAt++ {
			dets := make([]*fd.Detector, 3)
			procs := make([]amp.Process, 3)
			var decided amp.Time
			var sim *amp.Sim
			for i := range procs {
				dets[i] = fd.NewDetector(3)
				dets[i].Period, dets[i].LeaseTTL = period, ttl
				syn := &Synod{
					Input:       i,
					Omega:       dets[i],
					LeaseHolder: dets[i].GrantHolder,
					Enabled:     func() bool { return sim.Now() > crashAt },
				}
				if i == 1 {
					syn.OnDecide = func(_ any, at amp.Time) { decided = at }
				}
				procs[i] = amp.NewStack(dets[i], syn)
			}
			sim = amp.NewSim(procs, amp.WithDelay(amp.DelayFunc(func(src, dst int, _ amp.Time, _ *rand.Rand) amp.Time {
				if src == 0 && dst == 2 {
					return 1 + lag
				}
				return 1
			})))
			sim.CrashAt(0, crashAt)
			var lapse amp.Time
			sim.Schedule(crashAt+5, func() { // the dead holder's last heartbeat has landed
				h, until, ok := dets[2].GrantHolder(sim.Now())
				if !ok || h != 0 {
					t.Errorf("lag %d, crash at %d: survivor 2 is bound to (%d, %v), want the dead holder 0", lag, crashAt, h, ok)
				}
				lapse = until
			})
			sim.Run(crashAt + 4*ttl)
			if decided <= lapse || decided > lapse+6 {
				t.Fatalf("lag %d, crash at %d: survivor 1 decided at %d, want in (%d, %d]: right after 2's grant lapses",
					lag, crashAt, decided, lapse, lapse+6)
			}
		}
	}
}
