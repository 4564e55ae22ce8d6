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
