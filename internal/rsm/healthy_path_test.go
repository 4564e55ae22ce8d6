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
// kickoff tick later — and nobody but the originator sends the payload
// and nobody but the leader the decision, which bounds the messages per
// command. A burst submitted in one turn
// still shares one slot, because the proposal is built at phase 2. CI
// greps this test's "ticks" lines into the PR log.
func TestHealthyPathTicks(t *testing.T) {
	c := newLBRSM(t, 3)
	const cmds = 50
	for _, row := range []struct {
		name    string
		at      int
		max     amp.Time
		maxMsgs float64
	}{
		{"leader", 0, 5, 25},
		{"follower", 1, 6, 26.5},
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
		if msgs > row.maxMsgs {
			t.Errorf("submit at %s: %.3f messages per command, want <= %g: a payload or decide relay or an extra ballot is back on the healthy path", row.name, msgs, row.maxMsgs)
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

// tapCounts is what the replicas of a tapped cluster count and lose.
type tapCounts struct {
	payloads  int  // toPayload frames from anybody but the payload's originator
	resends   int  // toPayload frames its originator sent again
	decides   int  // synDecide frames from anybody but node 0, the leader
	answers   int  // frames that teach a decided slot outside a Synod decide
	frontiers int  // frontier-only tbDecided frames sent to one replica
	deaf      int  // a follower that loses every synDecide frame (0: none)
	blind     bool // the deaf follower also loses every frontier-only frame
}

// muxComponent is the synod mux's position in NewNode's Stack.
const muxComponent = 2

// relayTap is a replica's process as the simulator sees it, counting the
// relays that reach it: copies of a payload or a decision sent by
// anybody but the replica that first broadcast it.
type relayTap struct {
	amp.Process
	id int
	c  *tapCounts
}

// Init hands the replica a context that counts the frontier-only
// answers it sends (a gossip is a broadcast).
func (p relayTap) Init(ctx amp.Context) { p.Process.Init(frontierTap{Context: ctx, c: p.c}) }

type frontierTap struct {
	amp.Context
	c *tapCounts
}

func (f frontierTap) Send(to int, msg amp.Message) {
	if inner := reflect.ValueOf(msg).FieldByName("Inner"); inner.IsValid() {
		if d, ok := inner.Interface().(tbDecided); ok && d.Slot < 0 {
			f.c.frontiers++
		}
	}
	f.Context.Send(to, msg)
}

func (p relayTap) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	// The Stack's envelope type is amp's own; its fields are exported.
	env := reflect.ValueOf(msg)
	if inner := env.FieldByName("Inner"); inner.IsValid() {
		switch m := inner.Interface().(type) {
		case toPayload:
			if from != m.ID.Sender {
				p.c.payloads++
			} else if m.Lingered {
				p.c.resends++
			}
		case tbDecided:
			if m.Slot >= 0 {
				p.c.answers++
			} else if p.c.blind && p.id == p.c.deaf {
				return
			}
		case muxMsg:
			if fmt.Sprintf("%T", m.Inner) != "mpcons.synDecide" {
				break
			}
			if from != 0 {
				p.c.decides++
			}
			if p.c.deaf != 0 && p.id == p.c.deaf {
				return
			}
		default:
			if env.FieldByName("Slot").Int() == muxComponent {
				p.c.answers++ // the mux carries nothing but slot envelopes
			}
		}
	}
	p.Process.OnMessage(ctx, from, msg)
}

func newTappedCluster(n int, c *tapCounts, simOpts ...amp.SimOption) *rsmCluster {
	cl := &rsmCluster{}
	procs := make([]amp.Process, n)
	for i := range procs {
		cl.nodes = append(cl.nodes, NewNode(n))
		procs[i] = relayTap{Process: cl.nodes[i].Stack, id: i, c: c}
	}
	cl.sim = amp.NewSim(procs, simOpts...)
	return cl
}

// healthyRun submits 100 commands round-robin at n = 3 replicas with
// every link up and checks that all of them apply everywhere.
func healthyRun(t *testing.T, simOpts ...amp.SimOption) tapCounts {
	t.Helper()
	const n, cmds = 3, 100
	var counts tapCounts
	c := newTappedCluster(n, &counts, simOpts...)
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
	return counts
}

// TestHealthyRunRelaysNoPayload: with every link up the originator's
// own broadcast is the only copy of a payload anybody sends — n frames
// per command, not n squared.
func TestHealthyRunRelaysNoPayload(t *testing.T) {
	if got := healthyRun(t, amp.WithDelay(amp.FixedDelay{D: 1})).payloads; got != 0 {
		t.Errorf("%d toPayload frames came from a replica other than their originator, want 0 on a healthy run", got)
	}
}

// TestHealthyRunRelaysNoDecide: with every link up the leader's own
// broadcast is the only copy of a slot's decision anybody sends; the
// followers' Synod instances are released on delivery, before their
// lazy relay could fire.
func TestHealthyRunRelaysNoDecide(t *testing.T) {
	if got := healthyRun(t, amp.WithDelay(amp.FixedDelay{D: 1})).decides; got != 0 {
		t.Errorf("%d synDecide frames came from a replica other than the leader, want 0 on a healthy run", got)
	}
}

// TestHealthyRunAnswersNoDecidedSlot: with every link up but delays
// spread, acceptor replies reach the leader after it decided. A late
// reply teaches nobody anything and is dropped; only a ballot for a
// decided slot is answered, and a healthy run sends none. Nor does
// any payload linger a sync period, so no originator sends one again
// and nobody answers one with its frontier.
func TestHealthyRunAnswersNoDecidedSlot(t *testing.T) {
	counts := healthyRun(t, amp.WithSeed(7), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 4}))
	if counts.answers != 0 {
		t.Errorf("%d frames answered a decided slot, want 0 on a healthy run", counts.answers)
	}
	if counts.resends != 0 || counts.frontiers != 0 {
		t.Errorf("%d payload frames re-sent by their originator and %d frontier-only answers, want 0 on a healthy run", counts.resends, counts.frontiers)
	}
}

// TestMissedLastDecideIsFetched: a follower loses the decision of the
// last slot and nothing is submitted after it, so no later decision or
// ballot tells it that it is behind. The frontier its peers gossip on
// their sync timers does; it fetches the slot and applies the command
// within two sync periods of the decision.
func TestMissedLastDecideIsFetched(t *testing.T) {
	const n, submitAt, deaf = 3, 1000, 2
	var counts tapCounts
	c := newTappedCluster(n, &counts, amp.WithDelay(amp.FixedDelay{D: 1}))
	appliedAt := make([]amp.Time, n)
	for i, nd := range c.nodes {
		nd.OnApply = func(_ Entry, at amp.Time) { appliedAt[i] = at }
	}
	c.sim.Schedule(500, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: "k", Val: 0}) })
	c.sim.Schedule(submitAt, func() {
		counts.deaf = deaf
		c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "put", Key: "k", Val: 1})
	})
	c.sim.Run(submitAt + 10*tbSyncPeriod)

	decided := appliedAt[0]
	if decided < submitAt || c.nodes[1].Len() != 2 {
		t.Fatalf("leader applied the last command at %d, follower 1 applied %d commands: want both on the healthy path", decided, c.nodes[1].Len())
	}
	const fetch = 2 // tbFetch and its answer
	switch at := appliedAt[deaf]; {
	case c.nodes[deaf].Len() != 2:
		t.Errorf("the follower that missed the last decide applied %d of 2 commands", c.nodes[deaf].Len())
	case at > decided+2*tbSyncPeriod+fetch:
		t.Errorf("the follower that missed the last decide applied it at %d, want within two sync periods and a fetch of the decision at %d", at, decided)
	}
	if got := c.nodes[deaf].Get("k"); got != 1 {
		t.Errorf("the follower that missed the last decide reads k = %v, want 1", got)
	}
	t.Logf("last slot decided at %d; the follower that missed it applied it at %d", decided, appliedAt[deaf])
}

// TestMissedDecideLearnedFromOwnBallot: at n = 5 follower 1 loses the
// decision of a slot and every frontier gossip, so neither a fetch nor
// a relay can teach it the slot; then the leader crashes and Ω elects
// follower 1, which still holds the slot's command unscheduled. Its
// first prepare for the slot reaches peers that decided and forgot it,
// and their answer delivers the slot one round trip later — well
// inside a sync period of the decision.
func TestMissedDecideLearnedFromOwnBallot(t *testing.T) {
	const n, submitAt, crashAt, deaf = 5, 500, 520, 1
	counts := tapCounts{blind: true}
	c := newTappedCluster(n, &counts, amp.WithDelay(amp.FixedDelay{D: 1}))
	spy := &prepareSpy{}
	c.sim.Schedule(1, func() {
		spy.Context = c.nodes[deaf].mux.ctx
		c.nodes[deaf].mux.ctx = spy
	})
	appliedAt := make([]amp.Time, n)
	for i, nd := range c.nodes {
		nd.OnApply = func(_ Entry, at amp.Time) { appliedAt[i] = at }
	}
	c.sim.Schedule(submitAt, func() {
		counts.deaf = deaf
		c.nodes[2].Submit(c.nodes[2].Ctx(), Command{Op: "put", Key: "k", Val: 1})
	})
	c.sim.CrashAt(0, crashAt)
	c.sim.Run(submitAt + 4*tbSyncPeriod)

	decided := appliedAt[2]
	if decided == 0 || decided >= crashAt {
		t.Fatalf("the slot applied at node 2 at %d, want decided before the leader crashed at %d", decided, crashAt)
	}
	if len(spy.at) == 0 {
		t.Fatalf("node %d never sent a prepare", deaf)
	}
	prepared := spy.at[0]
	switch at := appliedAt[deaf]; {
	case c.nodes[deaf].Len() != 1 || c.nodes[deaf].Get("k") != 1:
		t.Errorf("node %d applied %d commands (k = %v), want the one it missed", deaf, c.nodes[deaf].Len(), c.nodes[deaf].Get("k"))
	case at != prepared+2:
		t.Errorf("node %d applied the slot at %d, want one round trip after its prepare at %d", deaf, at, prepared)
	case at >= decided+tbSyncPeriod:
		t.Errorf("node %d applied the slot at %d, want within a sync period of the decision at %d", deaf, at, decided)
	}
	if counts.answers == 0 {
		t.Error("no frame answered the decided slot")
	}
	t.Logf("slot decided at %d; node %d prepared at %d and applied it at %d", decided, deaf, prepared, appliedAt[deaf])
}

// TestLingeringPayloadIsRelayed is reliable broadcast's agreement
// clause under the lazy relay: the originator's broadcast reaches one
// follower and nobody else — not the leader, who alone proposes — and
// the originator crashes. The follower that holds the payload relays
// it from its sync timer once it has lingered a full period, and every
// correct replica delivers it within two periods and a ballot.
func TestLingeringPayloadIsRelayed(t *testing.T) {
	const n, submitAt = 3, 1000
	var counts tapCounts
	c := newTappedCluster(n, &counts, amp.WithDelay(amp.FixedDelay{D: 1}),
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
	if relays := counts.payloads; relays == 0 || relays > n {
		t.Errorf("%d relayed toPayload frames, want one broadcast from the one holder", relays)
	}
	t.Logf("payload held by one follower at %d, applied at %v after %d relayed frames", submitAt+1, appliedAt[:2], counts.payloads)
}

// TestLostBroadcastIsResent: the originator's broadcast, and every frame
// it sends for three sync periods, is lost on every link, so no other
// replica holds the payload to relay. The originator sends it again
// once per sync period while it stays unscheduled, and every replica
// applies it within two sync periods of the loss window closing.
func TestLostBroadcastIsResent(t *testing.T) {
	const n, submitAt, origin = 3, 1000, 2
	const healAt = submitAt + 3*tbSyncPeriod
	var counts tapCounts
	c := newTappedCluster(n, &counts, amp.WithDelay(amp.FixedDelay{D: 1}),
		amp.WithAdversary(amp.AdversaryFunc(func(src, dst int, at amp.Time) amp.Verdict {
			return amp.Verdict{Drop: src == origin && dst != origin && at >= submitAt && at < healAt}
		})))
	appliedAt := make([]amp.Time, n)
	for i, nd := range c.nodes {
		nd.OnApply = func(_ Entry, at amp.Time) { appliedAt[i] = at }
	}
	c.sim.Schedule(submitAt, func() { c.nodes[origin].Submit(c.nodes[origin].Ctx(), Command{Op: "put", Key: "k", Val: 1}) })
	c.sim.Run(healAt + 10*tbSyncPeriod)

	for i, nd := range c.nodes {
		switch at := appliedAt[i]; {
		case nd.Len() != 1 || nd.Get("k") != 1:
			t.Errorf("replica %d applied %d commands (k = %v), want the lost broadcast's one", i, nd.Len(), nd.Get("k"))
		case at > healAt+2*tbSyncPeriod:
			t.Errorf("replica %d applied it at %d, want within two sync periods of the loss window closing at %d", i, at, healAt)
		}
	}
	if counts.resends == 0 || counts.payloads != 0 {
		t.Errorf("%d re-sent frames from the originator and %d relays, want the originator's re-sends only", counts.resends, counts.payloads)
	}
	t.Logf("loss window closed at %d; applied at %v after %d re-sent frames", healAt, appliedAt, counts.resends)
}

// TestResentPayloadIsAnsweredWithFrontier: follower 1 submits a command
// and loses the decision of its slot, and the frontier gossip that
// follows it; nothing is submitted after it. So nothing tells it that
// it is behind: its payload lingers unscheduled. It sends the payload
// again, its peers, which delivered it, answer with their frontier, and
// it fetches the slot and applies the command within four sync periods.
func TestResentPayloadIsAnsweredWithFrontier(t *testing.T) {
	const n, submitAt, origin = 3, 1000, 1
	counts := tapCounts{blind: true}
	c := newTappedCluster(n, &counts, amp.WithDelay(amp.FixedDelay{D: 1}))
	appliedAt := make([]amp.Time, n)
	for i, nd := range c.nodes {
		nd.OnApply = func(_ Entry, at amp.Time) { appliedAt[i] = at }
	}
	c.sim.Schedule(submitAt, func() {
		counts.deaf = origin
		c.nodes[origin].Submit(c.nodes[origin].Ctx(), Command{Op: "put", Key: "k", Val: 1})
	})
	// Peers gossip a moved frontier on their next sync timer, within a
	// period of the decision; the originator hears frontier frames again
	// only after that.
	c.sim.Schedule(submitAt+tbSyncPeriod+10, func() { counts.blind = false })
	c.sim.Run(submitAt + 10*tbSyncPeriod)

	decided := appliedAt[0]
	if decided < submitAt || c.nodes[2].Len() != 1 {
		t.Fatalf("leader applied the command at %d, follower 2 applied %d commands: want both on the healthy path", decided, c.nodes[2].Len())
	}
	switch at := appliedAt[origin]; {
	case c.nodes[origin].Len() != 1 || c.nodes[origin].Get("k") != 1:
		t.Errorf("the originator applied %d commands (k = %v), want its own", c.nodes[origin].Len(), c.nodes[origin].Get("k"))
	case at > submitAt+4*tbSyncPeriod:
		t.Errorf("the originator applied its command at %d, want within four sync periods of its submit at %d", at, submitAt)
	}
	if counts.resends == 0 || counts.frontiers == 0 {
		t.Errorf("%d re-sent frames and %d frontier answers, want both", counts.resends, counts.frontiers)
	}
	t.Logf("decided at %d; the originator applied it at %d after %d re-sent frames and %d frontier answers", decided, appliedAt[origin], counts.resends, counts.frontiers)
}

// TestPaceSpacesBallotStarts pins what the mux's pace promises, with a pace
// long enough to bind on Loopback: a leader that started no ballot for a
// pace starts one in the turn work arrives; work arriving sooner waits
// for exactly the rest of the pace, and all of it shares one slot.
func TestPaceSpacesBallotStarts(t *testing.T) {
	const pace = 12
	c := newLBRSM(t, 3, func(c *nodeConfig) { c.pace = pace })
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
