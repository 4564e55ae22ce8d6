package rsm

import (
	"fmt"
	"reflect"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
	"distbasics/internal/transport"
)

// lbRSM is three replicas on transport.Loopback under transport.Runtime
// — virtual time, one tick per message delay, a deterministic queue —
// so "how many ticks from Submit to apply" is an exact count: the
// protocol's message delays plus every tick it spent waiting for a
// timer.
type lbRSM struct {
	lb      *transport.Loopback
	nodes   []*Node
	rts     []*transport.Runtime
	applied []rbcast.MsgID // last entry applied, per node
}

func newLBRSM(t *testing.T, n int, opts ...NodeOption) *lbRSM {
	t.Helper()
	amp.RegisterWire(transport.Register)
	RegisterWire(transport.Register)
	c := &lbRSM{lb: transport.NewLoopback(n), applied: make([]rbcast.MsgID, n)}
	for i := 0; i < n; i++ {
		i := i
		c.applied[i].Sender = -1 // node 0's first id is the zero MsgID
		nd := NewNode(n, append(opts, WithoutAppliedLog(), WithApplyHook(func(e Entry, _ amp.Time) { c.applied[i] = e.ID }))...)
		c.nodes = append(c.nodes, nd)
		c.rts = append(c.rts, transport.NewRuntime(c.lb.Node(i), c.lb.Clock(), nd.Stack, transport.WithRuntimeSeed(int64(i+1))))
	}
	for _, rt := range c.rts {
		rt.Start()
	}
	c.lb.Run(500) // Ω settles on node 0
	return c
}

// ticksToApply submits k commands at node at in one event-loop turn and
// steps the clock until the last of them applies there.
func (c *lbRSM) ticksToApply(t *testing.T, at, k int) amp.Time {
	t.Helper()
	var want rbcast.MsgID
	t0 := c.lb.Now()
	c.rts[at].Do(func(amp.Context) {
		for j := 0; j < k; j++ {
			want = c.nodes[at].Submit(c.nodes[at].Ctx(), Command{Op: "put", Key: fmt.Sprint(j % 8), Val: j})
		}
	})
	for c.applied[at] != want {
		if c.lb.Now()-t0 > 1000 {
			t.Fatalf("command submitted at node %d not applied there after 1000 ticks", at)
		}
		c.lb.Run(c.lb.Now() + 1)
	}
	return c.lb.Now() - t0
}

// TestHealthyPathTicks pins "no timer on the healthy path": with a
// settled leader and an idle window, a command costs exactly the Synod's
// five message delays (prepare, promise, accept, accepted, decide) at
// the leader and one more (the payload's way to the leader) at a
// follower — the ballot starts in the turn the work arrives, not a
// kickoff tick later — and nobody but the originator sends the payload,
// which bounds the messages per command. A burst submitted in one turn
// still shares one slot, because the proposal is built at phase 2. CI
// greps this test's "ticks" lines into the PR log.
func TestHealthyPathTicks(t *testing.T) {
	c := newLBRSM(t, 3)
	const cmds = 50
	for _, row := range []struct {
		name string
		at   int
		max  amp.Time
	}{
		{"leader", 0, 5},
		{"follower", 1, 6},
	} {
		var total amp.Time
		sent0 := c.lb.Stats().Sent.Load()
		for i := 0; i < cmds; i++ {
			d := c.ticksToApply(t, row.at, 1)
			if d > row.max {
				t.Errorf("command %d submitted at the %s applied there after %d ticks, want <= %d: something on the path waited for a timer", i, row.name, d, row.max)
			}
			total += d
		}
		msgs := float64(c.lb.Stats().Sent.Load()-sent0) / cmds
		t.Logf("rsm on Loopback, submit at %s: %.3f ticks per command, %.3f messages per command", row.name, float64(total)/cmds, msgs)
		if msgs > 38.5 {
			t.Errorf("submit at %s: %.3f messages per command, want <= 38.5: a payload relay or an extra ballot is back on the healthy path", row.name, msgs)
		}
	}

	slots := c.nodes[0].SlotsDelivered()
	before := c.nodes[0].Len()
	d := c.ticksToApply(t, 0, 32)
	if got := c.nodes[0].SlotsDelivered() - slots; got != 1 || c.nodes[0].Len()-before != 32 {
		t.Errorf("32 commands submitted in one turn took %d slots (%d applied), want 1 slot: the eager ballot must not split the burst", got, c.nodes[0].Len()-before)
	}
	t.Logf("rsm on Loopback, 32 commands in one turn: %d ticks, 1 slot", d)
}

// payloadTap is a replica's process as the simulator sees it, counting
// the toPayload frames that reach it from anybody but the payload's
// originator: the relays.
type payloadTap struct {
	amp.Process
	relays *int
}

func (p payloadTap) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	// The Stack's envelope type is amp's own; its Inner field is exported.
	if inner := reflect.ValueOf(msg).FieldByName("Inner"); inner.IsValid() {
		if m, ok := inner.Interface().(toPayload); ok && from != m.ID.Sender {
			*p.relays++
		}
	}
	p.Process.OnMessage(ctx, from, msg)
}

func newTappedCluster(n int, relays *int, simOpts ...amp.SimOption) *rsmCluster {
	c := &rsmCluster{}
	procs := make([]amp.Process, n)
	for i := range procs {
		c.nodes = append(c.nodes, NewNode(n))
		procs[i] = payloadTap{Process: c.nodes[i].Stack, relays: relays}
	}
	c.sim = amp.NewSim(procs, simOpts...)
	return c
}

// TestHealthyRunRelaysNoPayload: with every link up the originator's
// own broadcast is the only copy of a payload anybody sends — n frames
// per command, not n squared.
func TestHealthyRunRelaysNoPayload(t *testing.T) {
	const n, cmds = 3, 100
	relays := 0
	c := newTappedCluster(n, &relays, amp.WithDelay(amp.FixedDelay{D: 1}))
	for i := 0; i < cmds; i++ {
		nd := c.nodes[i%n]
		c.sim.Schedule(amp.Time(300+20*i), func() { nd.Submit(nd.Ctx(), Command{Op: "put", Key: "k", Val: i}) })
	}
	c.sim.Run(300 + 20*cmds + 5*tbSyncPeriod)
	for i, nd := range c.nodes {
		if nd.Len() != cmds {
			t.Fatalf("replica %d applied %d of %d commands", i, nd.Len(), cmds)
		}
	}
	if relays != 0 {
		t.Errorf("%d toPayload frames came from a replica other than their originator, want 0 on a healthy run", relays)
	}
}

// TestLingeringPayloadIsRelayed is reliable broadcast's agreement
// clause under the lazy relay: the originator's broadcast reaches one
// follower and nobody else — not the leader, who alone proposes — and
// the originator crashes. The follower that holds the payload relays
// it from its sync timer once it has lingered a full period, and every
// correct replica delivers it within two periods and a ballot.
func TestLingeringPayloadIsRelayed(t *testing.T) {
	const n, submitAt = 3, 1000
	relays := 0
	c := newTappedCluster(n, &relays, amp.WithDelay(amp.FixedDelay{D: 1}),
		amp.WithAdversary(amp.AdversaryFunc(func(src, dst int, at amp.Time) amp.Verdict {
			return amp.Verdict{Drop: src == 2 && dst != 1 && at >= submitAt}
		})))
	appliedAt := make([]amp.Time, n)
	for i, nd := range c.nodes {
		nd.OnApply = func(_ Entry, at amp.Time) { appliedAt[i] = at }
	}
	c.sim.Schedule(submitAt, func() { c.nodes[2].Submit(c.nodes[2].Ctx(), Command{Op: "put", Key: "k", Val: 1}) })
	c.sim.CrashAt(2, submitAt+1)
	c.sim.Run(submitAt + 10*tbSyncPeriod)

	const ballot = 6 // the relay's way to the leader, then the Synod's five delays
	for _, i := range []int{0, 1} {
		switch at := appliedAt[i]; {
		case c.nodes[i].Len() != 1:
			t.Errorf("replica %d applied %d commands, want the crashed originator's one", i, c.nodes[i].Len())
		case at < submitAt+tbSyncPeriod:
			t.Errorf("replica %d applied it at %d, under a sync period after the submit at %d: the relay was not lazy", i, at, submitAt)
		case at > submitAt+1+2*tbSyncPeriod+ballot:
			t.Errorf("replica %d applied it at %d, want within two sync periods and a ballot of the submit at %d", i, at, submitAt)
		}
	}
	if relays == 0 || relays > n {
		t.Errorf("%d relayed toPayload frames, want one broadcast from the one holder", relays)
	}
	t.Logf("payload held by one follower at %d, applied at %v after %d relayed frames", submitAt+1, appliedAt[:2], relays)
}

// TestPaceSpacesBallotStarts pins what WithPace promises, with a pace
// long enough to bind on Loopback: a leader that started no ballot for a
// pace starts one in the turn work arrives; work arriving sooner waits
// for exactly the rest of the pace, and all of it shares one slot.
func TestPaceSpacesBallotStarts(t *testing.T) {
	const pace = 12
	c := newLBRSM(t, 3, WithPace(pace))
	t0 := c.lb.Now()
	if d := c.ticksToApply(t, 0, 1); d > 5 {
		t.Fatalf("idle leader: applied after %d ticks, want <= 5", d)
	}
	slots := c.nodes[0].SlotsDelivered()
	for i := 0; i < 2; i++ { // two more turns inside the pace
		c.rts[0].Do(func(amp.Context) { c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "put", Key: "a", Val: i}) })
		c.lb.Run(c.lb.Now() + 1)
	}
	c.ticksToApply(t, 0, 1)
	if got := c.lb.Now() - t0; got != pace+5 {
		t.Errorf("work inside the pace applied %d ticks after the previous start, want pace+5 = %d", got, pace+5)
	}
	if got := c.nodes[0].SlotsDelivered() - slots; got != 1 {
		t.Errorf("three turns inside one pace took %d slots, want 1", got)
	}
	c.lb.Run(c.lb.Now() + pace)
	if d := c.ticksToApply(t, 0, 1); d > 5 {
		t.Errorf("leader idle for a pace: applied after %d ticks, want <= 5", d)
	}
}

// prepareSpy wraps a mux's context and records when a synPrepare leaves
// through it (every slot's muxCtx is built over the mux's context).
type prepareSpy struct {
	amp.Context
	at []amp.Time
}

func (p *prepareSpy) Broadcast(msg amp.Message) {
	if m, ok := msg.(muxMsg); ok && fmt.Sprintf("%T", m.Inner) == "mpcons.synPrepare" {
		p.at = append(p.at, p.Now())
	}
	p.Context.Broadcast(msg)
}

// TestLeaseFailoverWaitsOneTTL bounds the fail-over outage on virtual
// time: the lease holder crashes with a write pending at a follower. The
// new leader is elected long before the lease it granted lapses; it must
// send no ballot into that lease (both surviving acceptors would drop
// it, and the retry back-off would then step over the lapse) and decide
// within one ballot of the lapse — TTL after the dead holder's last
// heartbeat, not TTL plus a back-off period.
func TestLeaseFailoverWaitsOneTTL(t *testing.T) {
	const ttl, crashAt = 200, 400
	var applied amp.Time
	c := newTunedCluster(3, []NodeOption{WithReadLease(ttl)}, amp.WithDelay(amp.FixedDelay{D: 1}))
	spy := &prepareSpy{}
	c.sim.Schedule(1, func() {
		spy.Context = c.nodes[1].mux.ctx
		c.nodes[1].mux.ctx = spy
	})
	c.sim.CrashAt(0, crashAt)
	var lapse amp.Time
	c.sim.Schedule(crashAt+2, func() {
		h, until, ok := c.nodes[1].Omega.GrantHolder(c.sim.Now())
		if !ok || h != 0 {
			t.Errorf("node 1 is bound to (%d,%v) after the crash, want the dead holder 0", h, ok)
		}
		lapse = until
		c.nodes[1].OnApply = func(Entry, amp.Time) { applied = c.sim.Now() }
		c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: "x", Val: 1})
	})
	c.sim.Run(2000)

	period := c.nodes[1].Omega.Period
	if lapse < crashAt+ttl-period || lapse > crashAt+ttl+1 {
		t.Fatalf("node 1's grant to the dead holder lapses at %d, want one TTL after its last heartbeat (crash at %d)", lapse, crashAt)
	}
	if applied == 0 || applied > lapse+2*period {
		t.Errorf("first post-crash command applied at %d, want within 2 heartbeat periods of the lease lapse at %d", applied, lapse)
	}
	var sent []amp.Time
	for _, at := range spy.at {
		if at > crashAt {
			sent = append(sent, at)
		}
	}
	if len(sent) == 0 || sent[0] < lapse {
		t.Errorf("new leader's synPrepares after the crash at %v, want the first at the lapse %d and none before it", sent, lapse)
	}
	t.Logf("holder crashed at %d, grant lapsed at %d, first ballot at %v, applied at %d", crashAt, lapse, sent, applied)
}
