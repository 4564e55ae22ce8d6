package fd

import (
	"math/rand"
	"testing"

	"distbasics/internal/amp"
)

// leaseRecord accumulates, per virtual tick, which processes claimed
// HoldsLease — the mutual-exclusion witness.
type leaseRecord struct {
	holders map[amp.Time][]int
}

// leaseProbe samples its detector's HoldsLease every tick from inside
// the same stack (so it observes exactly what a colocated state
// machine would).
type leaseProbe struct {
	d   *Detector
	id  int
	rec *leaseRecord
}

func (p *leaseProbe) Init(ctx amp.Context) { ctx.SetTimer(1, 0) }

func (p *leaseProbe) OnMessage(ctx amp.Context, from int, msg amp.Message) {}

func (p *leaseProbe) OnTimer(ctx amp.Context, id int) {
	if p.d.HoldsLease(ctx.Now()) {
		p.rec.holders[ctx.Now()] = append(p.rec.holders[ctx.Now()], p.id)
	}
	ctx.SetTimer(1, 0)
}

// newLeaseCluster builds n detectors with leasing enabled and a
// per-tick HoldsLease probe in each stack.
func newLeaseCluster(n int, ttl amp.Time, opts ...amp.SimOption) (*fdCluster, *leaseRecord) {
	rec := &leaseRecord{holders: map[amp.Time][]int{}}
	c := &fdCluster{}
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		d := NewDetector(n)
		d.LeaseTTL = ttl
		c.dets = append(c.dets, d)
		st := amp.NewStack(d, &leaseProbe{d: d, id: i, rec: rec})
		c.stacks = append(c.stacks, st)
		procs[i] = st
	}
	c.sim = amp.NewSim(procs, opts...)
	return c, rec
}

// checkSingleHolder asserts no tick saw two processes holding the lease.
func checkSingleHolder(t *testing.T, rec *leaseRecord) {
	t.Helper()
	for at, hs := range rec.holders {
		if len(hs) > 1 {
			t.Fatalf("lease mutual exclusion violated at t=%d: holders %v", at, hs)
		}
	}
}

func TestLeaseLeaderAcquires(t *testing.T) {
	c, rec := newLeaseCluster(3, 64, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Run(2_000)
	if !c.dets[0].HoldsLease(2_000) {
		t.Fatal("stable leader 0 never acquired the read lease")
	}
	for i := 1; i < 3; i++ {
		if c.dets[i].HoldsLease(2_000) {
			t.Fatalf("follower %d claims the lease", i)
		}
		if h, _, ok := c.dets[i].GrantHolder(2_000); !ok || h != 0 {
			t.Fatalf("follower %d grant holder = (%d,%v), want (0,true)", i, h, ok)
		}
	}
	checkSingleHolder(t, rec)
}

func TestLeaseDisabledByDefault(t *testing.T) {
	c := newFDCluster(3, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Run(1_000)
	if c.dets[0].HoldsLease(1_000) {
		t.Fatal("lease held with LeaseTTL unset")
	}
	if _, _, ok := c.dets[1].GrantHolder(1_000); ok {
		t.Fatal("grant outstanding with LeaseTTL unset")
	}
}

// TestLeaseHandoffOnLeaderCrash: the lease lapses within a TTL of the
// leader's crash and the next leader acquires it — with no tick where
// both held it.
func TestLeaseHandoffOnLeaderCrash(t *testing.T) {
	const ttl = 64
	c, rec := newLeaseCluster(4, ttl, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.CrashAt(0, 1_000)
	c.sim.Run(5_000)
	if !c.dets[1].HoldsLease(5_000) {
		t.Fatal("successor leader 1 never acquired the lease after the crash")
	}
	checkSingleHolder(t, rec)
	// The old leader's last held tick precedes the successor's first by
	// construction of the grant windows; both must appear in the record.
	saw0, saw1 := false, false
	for _, hs := range rec.holders {
		for _, h := range hs {
			if h == 0 {
				saw0 = true
			}
			if h == 1 {
				saw1 = true
			}
		}
	}
	if !saw0 || !saw1 {
		t.Fatalf("expected both leaders to hold at some point (saw0=%v saw1=%v)", saw0, saw1)
	}
}

// TestLeaseMutualExclusionUnderPartition flaps connectivity around the
// incumbent: an isolation window forces a leadership change and a
// lease handoff, the heal forces them back. At no sampled tick may two
// processes hold the lease simultaneously — the property the KV's
// local-read fast path rests on.
func TestLeaseMutualExclusionUnderPartition(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c, rec := newLeaseCluster(4, 48,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 4}),
			amp.WithAdversary(amp.Partition(500, 2_000, []int{0})))
		c.sim.Run(6_000)
		checkSingleHolder(t, rec)
		if !c.dets[0].HoldsLease(6_000) {
			t.Fatalf("seed %d: healed leader 0 did not reacquire the lease", seed)
		}
	}
}

// TestLeaseSelfRenouncedWhileGrantLive pins the holder-side half of
// the sequential-grant rule: a process with a live grant out to
// another process may not count its own vote toward a lease majority
// (and its acceptor must keep honoring the promisee), even if it has
// since regained leadership and fresh grants from peers. Counting self
// here is the two-leaseholder bug: the self vote would complete a
// majority overlapping the one the promisee assembled from this very
// grant.
func TestLeaseSelfRenouncedWhileGrantLive(t *testing.T) {
	d := NewDetector(3)
	d.LeaseTTL = 100
	ctx := &grantCtx{}
	d.Init(ctx)
	// Follow 1 and grant it a lease at t=0 (promise live until 100).
	d.leader = 1
	d.maybeGrant(ctx, 1, 0)
	// Leadership swings back to this process and peer 2 grants it while
	// the promise to 1 is still live.
	d.leader = 0
	d.lease.grantExp[2] = 140
	if d.HoldsLease(40) {
		t.Fatal("counted self into a lease majority while a grant to 1 was live")
	}
	if h, until, ok := d.GrantHolder(40); !ok || h != 1 || until != 100 {
		t.Fatalf("GrantHolder = (%d,%d,%v), want (1,100,true): the live promise binds the acceptor until it lapses", h, until, ok)
	}
	// Once the promise lapses the self vote counts again.
	if !d.HoldsLease(120) {
		t.Fatal("lease not assembled after the outstanding grant expired")
	}
	if h, _, ok := d.GrantHolder(120); !ok || h != 0 {
		t.Fatalf("GrantHolder = (%d,%v), want (0,true) after the grant expired", h, ok)
	}
}

// TestLeaseMarginDiscountsHolderValidity: with LeaseMargin set, a
// grant elicited by a heartbeat sent at s is believed only until
// s+TTL-margin (the real-clock drift allowance).
func TestLeaseMarginDiscountsHolderValidity(t *testing.T) {
	d := NewDetector(3)
	d.LeaseTTL = 100
	d.LeaseMargin = 20
	ctx := &grantCtx{}
	d.Init(ctx) // heartbeat seq 0 recorded as sent at t=0
	d.onGrant(ctx, 1, 0)
	if !d.HoldsLease(79) {
		t.Fatal("lease not held inside the discounted window")
	}
	if d.HoldsLease(80) {
		t.Fatal("lease believed past sent+TTL-margin: margin not applied")
	}
}

// TestLeaseMutualExclusionAsymmetricPartition replays the
// two-leaseholder schedule that unconditional self-counting permitted:
// only the incumbent leader 0's OUTBOUND links are cut — and toward
// follower 2 earlier than toward follower 1 — so 2's promise to 0
// lapses (and 2 grants the new leader 1) while 1's own promise to 0 is
// still live and 0 still believes a lease via 1's last grant. If 1
// counted itself during that window it would hold concurrently with 0.
// The probes must never see two holders on any tick, and leadership
// (with the lease) must still hand off and hand back.
func TestLeaseMutualExclusionAsymmetricPartition(t *testing.T) {
	const (
		ttl      = 200
		cutTo2   = 800   // 0→2 silenced first...
		cutTo1   = 880   // ...then 0→1: staggers the promise expiries
		heal     = 3_000 //
		duration = 4_500
	)
	asym := amp.AdversaryFunc(func(src, dst int, at amp.Time) amp.Verdict {
		if src != 0 || at >= heal {
			return amp.Verdict{}
		}
		cut := (dst == 2 && at >= cutTo2) || (dst == 1 && at >= cutTo1)
		return amp.Verdict{Drop: cut}
	})
	c, rec := newLeaseCluster(3, ttl,
		amp.WithDelay(amp.FixedDelay{D: 2}),
		amp.WithAdversary(asym))
	c.sim.Run(duration)
	checkSingleHolder(t, rec)
	saw1 := false
	for at, hs := range rec.holders {
		for _, h := range hs {
			if h == 1 && at > cutTo1 && at < heal {
				saw1 = true
			}
		}
	}
	if !saw1 {
		t.Fatal("successor leader 1 never held the lease during the partition")
	}
	if !c.dets[0].HoldsLease(duration) {
		t.Fatal("healed leader 0 did not reacquire the lease")
	}
}

// TestLeaseGrantIsSequential pins the granter-side rule directly: a
// follower with a live grant to X refuses to grant Y until expiry.
func TestLeaseGrantIsSequential(t *testing.T) {
	d := NewDetector(3)
	d.LeaseTTL = 100
	ctx := &grantCtx{}
	d.Init(ctx)
	d.leader = 1 // follow 1
	ctx.sent = nil
	d.maybeGrant(ctx, 1, 0)
	if len(ctx.sent) != 1 {
		t.Fatalf("no grant issued to current leader (sent %v)", ctx.sent)
	}
	// Leadership flips to 2 while 1's grant is live: no grant for 2.
	d.leader = 2
	ctx.sent = nil
	ctx.now = 50
	d.maybeGrant(ctx, 2, 1)
	if len(ctx.sent) != 0 {
		t.Fatal("granted to a new leader while the previous grant was live")
	}
	// After expiry the new leader is granted.
	ctx.now = 101
	ctx.sent, ctx.sentTo = nil, nil
	d.maybeGrant(ctx, 2, 2)
	if len(ctx.sent) != 1 || ctx.sentTo[0] != 2 {
		t.Fatalf("post-expiry grant not issued to new leader (sent %v to %v)", ctx.sent, ctx.sentTo)
	}
}

// grantCtx is a minimal context for driving grant decisions directly.
type grantCtx struct {
	now    amp.Time
	sent   []amp.Message
	sentTo []int
}

func (g *grantCtx) ID() int { return 0 }
func (g *grantCtx) N() int  { return 3 }
func (g *grantCtx) Now() amp.Time {
	return g.now
}
func (g *grantCtx) Send(to int, msg amp.Message) {
	g.sent = append(g.sent, msg)
	g.sentTo = append(g.sentTo, to)
}
func (g *grantCtx) Broadcast(msg amp.Message)   {}
func (g *grantCtx) SetTimer(d amp.Time, id int) {}
func (g *grantCtx) Rand() *rand.Rand            { return rand.New(rand.NewSource(1)) }
func (g *grantCtx) Halt()                       {}

// TestLeaseSinceTracksUnbrokenRuns: LeaseSince names the start of the
// current unbroken run of HoldsLease. A renewal that lands before the
// last grant lapses continues the run; one that lands after starts a
// new run, even when nothing observed the lapse in between.
func TestLeaseSinceTracksUnbrokenRuns(t *testing.T) {
	d := NewDetector(3)
	d.LeaseTTL = 100
	ctx := &grantCtx{}
	d.Init(ctx) // heartbeat 0 sent at 0; this process leads
	grant := func(sentAt, arrives amp.Time) {
		ctx.now = sentAt
		d.sendHeartbeat(ctx)
		ctx.now = arrives
		d.onGrant(ctx, 1, d.lease.hbSeq-1)
	}
	if _, ok := d.LeaseSince(1); ok {
		t.Fatal("a run before any grant")
	}
	ctx.now = 2
	d.onGrant(ctx, 1, 0) // believed until 100
	grant(60, 62)        // renewed before the lapse: until 160
	if since, ok := d.LeaseSince(150); !ok || since != 2 {
		t.Fatalf("LeaseSince(150) = %d, %v; want the run from 2", since, ok)
	}
	grant(200, 202) // lapsed at 160, unobserved
	if since, ok := d.LeaseSince(202); !ok || since != 202 {
		t.Fatalf("LeaseSince(202) = %d, %v; want a new run from 202", since, ok)
	}
	if _, ok := d.LeaseSince(302); ok {
		t.Fatal("the run outlived its last grant")
	}
}
