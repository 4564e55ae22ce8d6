package rsm

import (
	"math/rand"
	"testing"

	"distbasics/internal/amp"
)

// Regression tests for the unbounded-slot consensus sequence. The
// replica stack used to hard-stop at DefaultMaxSlots = 64 preallocated
// Synod instances: command 65 was disseminated, relayed, and then
// silently never ordered. These tests drive well past that boundary —
// and past 10k slots — and pin the memory bounds (instance GC, batch
// retention, dedup watermarks) that make the unbounded sequence safe
// to run indefinitely.

// newTunedCluster is newRSMCluster with per-node options.
func newTunedCluster(n int, nodeOpts []NodeOption, simOpts ...amp.SimOption) *rsmCluster {
	c := &rsmCluster{}
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		nd := NewNode(n, nodeOpts...)
		c.nodes = append(c.nodes, nd)
		procs[i] = nd.Stack
	}
	c.sim = amp.NewSim(procs, simOpts...)
	return c
}

// TestRSMPastSixtyFourSlots is the direct regression for the old
// 64-instance cap: commands spaced widely enough that each needs its
// own consensus slot, pushed past slot 64. Under the capped design the
// 65th command was never applied anywhere.
func TestRSMPastSixtyFourSlots(t *testing.T) {
	const n, cmds = 3, 100
	c := newRSMCluster(n, amp.WithDelay(amp.FixedDelay{D: 2}))
	for i := 0; i < cmds; i++ {
		i := i
		c.sim.Schedule(amp.Time(10+200*i), func() {
			nd := c.nodes[i%n]
			nd.Submit(nd.Ctx(), Command{Op: "put", Key: "k", Val: i})
		})
	}
	c.sim.Run(amp.Time(10 + 200*cmds + 100_000))
	checkMutualConsistency(t, c.nodes, nil)
	for i, nd := range c.nodes {
		if nd.Len() != cmds {
			t.Fatalf("replica %d applied %d commands, want %d", i, nd.Len(), cmds)
		}
		if nd.SlotsDelivered() <= 64 {
			t.Fatalf("replica %d delivered only %d slots; the point is to cross 64", i, nd.SlotsDelivered())
		}
	}
}

// TestRSMTenThousandSlotsBoundedMemory drives one replica group past
// 10k decided slots in a single run and asserts every unbounded-looking
// structure stayed bounded: live Synod instances (GC'd at the delivery
// frontier), retained decided batches (compacted past the retention
// window), and the delivery/apply dedup maps (subsumed by per-sender
// watermarks).
func TestRSMTenThousandSlotsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long: ~10k consensus rounds")
	}
	const n, cmds, gap = 3, 11_000, 40
	c := newTunedCluster(n, []NodeOption{WithoutAppliedLog()},
		amp.WithDelay(amp.FixedDelay{D: 1}))
	for i := 0; i < cmds; i++ {
		i := i
		c.sim.Schedule(amp.Time(10+gap*i), func() {
			nd := c.nodes[i%n]
			nd.Submit(nd.Ctx(), Command{Op: "put", Key: "k", Val: i})
		})
	}
	c.sim.Run(amp.Time(10 + gap*cmds + 200_000))
	for i, nd := range c.nodes {
		if nd.Len() != cmds {
			t.Fatalf("replica %d applied %d commands, want %d", i, nd.Len(), cmds)
		}
		if nd.SlotsDelivered() <= 10_000 {
			t.Fatalf("replica %d delivered %d slots, want > 10000 (commands too batched to exercise slot turnover)",
				i, nd.SlotsDelivered())
		}
		if live := nd.LiveInstances(); live > 1 {
			t.Fatalf("replica %d holds %d live instances after quiescing, want <= 1 (GC leak)", i, live)
		}
		if got := nd.RetainedBatches(); got > DefaultRetention {
			t.Fatalf("replica %d retains %d decided batches, want <= %d (compaction leak)",
				i, got, DefaultRetention)
		}
		if got := len(nd.TO.delivered.above); got > 16 {
			t.Fatalf("replica %d delivered-dedup map has %d entries, want watermark-bounded", i, got)
		}
		if got := len(nd.seen.above); got > 16 {
			t.Fatalf("replica %d apply-dedup map has %d entries, want watermark-bounded", i, got)
		}
		if got := len(nd.TO.pending); got != 0 {
			t.Fatalf("replica %d still has %d pending entries", i, got)
		}
	}
}

// TestRSMBurstBatchesDisjoint floods the group with a burst far larger
// than one batch, with a small batch cap so the backlog spans many
// slots. Invariants: exactly-once apply, identical order everywhere,
// and real batching (fewer slots than commands, none below the
// ceil(total/maxBatch) floor) — i.e. consecutive head slots carried
// disjoint portions of the backlog instead of re-deciding one batch.
func TestRSMBurstBatchesDisjoint(t *testing.T) {
	const n, perNode, maxBatch = 3, 70, 8
	const total = n * perNode
	for seed := int64(0); seed < 3; seed++ {
		c := newTunedCluster(n,
			[]NodeOption{WithMaxBatch(maxBatch)},
			amp.WithSeed(seed), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 4}))
		for i := 0; i < n; i++ {
			i := i
			for k := 0; k < perNode; k++ {
				k := k
				c.sim.Schedule(amp.Time(5+k), func() {
					c.nodes[i].Submit(c.nodes[i].Ctx(), Command{Op: "put", Key: key(i, k%10), Val: k})
				})
			}
		}
		c.sim.Run(2_000_000)
		checkMutualConsistency(t, c.nodes, nil)
		for i, nd := range c.nodes {
			if nd.Len() != total {
				t.Fatalf("seed %d: replica %d applied %d, want %d", seed, i, nd.Len(), total)
			}
			seen := map[string]bool{}
			for _, e := range nd.Applied() {
				if seen[e.ID.String()] {
					t.Fatalf("seed %d: command %v applied twice at replica %d", seed, e.ID, i)
				}
				seen[e.ID.String()] = true
			}
			slots := nd.SlotsDelivered()
			if slots >= total {
				t.Fatalf("seed %d: replica %d used %d slots for %d commands — no batching happened",
					seed, i, slots, total)
			}
			// ceil(total/maxBatch) slots is the floor a perfect batcher hits.
			if min := (total + maxBatch - 1) / maxBatch; slots < min {
				t.Fatalf("seed %d: replica %d delivered %d slots, below the %d-slot batching floor",
					seed, i, slots, min)
			}
		}
	}
}

// fetchCtx is a minimal amp.Context that counts outbound sends, for
// driving TOBroadcast's anti-entropy answering path directly.
type fetchCtx struct {
	now   amp.Time
	sends []any
}

func (f *fetchCtx) ID() int                      { return 0 }
func (f *fetchCtx) N() int                       { return 3 }
func (f *fetchCtx) Now() amp.Time                { return f.now }
func (f *fetchCtx) Send(to int, msg amp.Message) { f.sends = append(f.sends, msg) }
func (f *fetchCtx) Broadcast(msg amp.Message)    { f.sends = append(f.sends, msg) }
func (f *fetchCtx) SetTimer(d amp.Time, id int)  {}
func (f *fetchCtx) Rand() *rand.Rand             { return rand.New(rand.NewSource(1)) }
func (f *fetchCtx) Halt()                        {}

// TestRSMFetchAnswerRateLimit pins the anti-entropy answering
// contract: chunked to tbFetchChunk slots per answer, at most one
// answer per peer per tbFetchMinGap ticks (a rebooting replica
// re-fetching aggressively must not extract an unbounded reply storm),
// and a frontier-only acknowledgement when there is nothing to serve.
func TestRSMFetchAnswerRateLimit(t *testing.T) {
	tb := newTOBroadcast(3, nil, nil)
	for s := 0; s < 200; s++ {
		tb.decided[s] = batch{}
		if s > tb.maxSeen {
			tb.maxSeen = s
		}
	}
	ctx := &fetchCtx{now: 1000}

	tb.answerFetch(ctx, 1, 0)
	if got := len(ctx.sends); got != tbFetchChunk {
		t.Fatalf("first answer sent %d messages, want chunked to %d", got, tbFetchChunk)
	}
	for i, m := range ctx.sends {
		d, ok := m.(tbDecided)
		if !ok || d.Slot != i {
			t.Fatalf("answer %d = %#v, want consecutive tbDecided from the floor", i, m)
		}
		if d.MaxSeen != tb.maxSeen {
			t.Fatalf("answer %d carries frontier %d, want %d", i, d.MaxSeen, tb.maxSeen)
		}
	}

	// Immediate re-ask from the same peer: suppressed.
	ctx.sends = nil
	ctx.now += tbFetchMinGap - 1
	tb.answerFetch(ctx, 1, tbFetchChunk)
	if len(ctx.sends) != 0 {
		t.Fatalf("re-ask within the gap got %d answers, want rate-limited to 0", len(ctx.sends))
	}

	// A different peer is not throttled by peer 1's budget.
	tb.answerFetch(ctx, 2, 0)
	if got := len(ctx.sends); got != tbFetchChunk {
		t.Fatalf("second peer got %d answers, want %d (per-peer limit leaked across peers)", got, tbFetchChunk)
	}

	// After the gap the first peer is served again, from its new floor.
	ctx.sends = nil
	ctx.now += tbFetchMinGap + 1
	tb.answerFetch(ctx, 1, tbFetchChunk)
	if got := len(ctx.sends); got != tbFetchChunk {
		t.Fatalf("post-gap answer sent %d, want %d", got, tbFetchChunk)
	}
	if d := ctx.sends[0].(tbDecided); d.Slot != tbFetchChunk {
		t.Fatalf("post-gap answer starts at slot %d, want %d", d.Slot, tbFetchChunk)
	}

	// A fetch beyond everything decided still gets a frontier-only ack.
	ctx.sends = nil
	ctx.now += tbFetchMinGap + 1
	tb.answerFetch(ctx, 1, 10_000)
	if len(ctx.sends) != 1 {
		t.Fatalf("beyond-frontier fetch got %d answers, want 1 frontier-only ack", len(ctx.sends))
	}
	if d := ctx.sends[0].(tbDecided); d.Slot != -1 || d.MaxSeen != tb.maxSeen {
		t.Fatalf("frontier-only ack = %#v, want Slot -1 with frontier %d", d, tb.maxSeen)
	}
}

// TestRSMReadLeaseSmoke: with WithReadLease the stable leader acquires
// the lease, followers do not, and writes still commit (the lease
// blocks rival ballots, never the holder's own).
func TestRSMReadLeaseSmoke(t *testing.T) {
	c := newTunedCluster(3, []NodeOption{WithReadLease(200)},
		amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Schedule(500, func() {
		c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "put", Key: "x", Val: 1})
	})
	c.sim.Run(10_000)
	if !c.nodes[0].HoldsLease(10_000) {
		t.Fatal("stable leader replica never acquired the read lease")
	}
	for i := 1; i < 3; i++ {
		if c.nodes[i].HoldsLease(10_000) {
			t.Fatalf("follower replica %d claims the lease", i)
		}
	}
	for i, nd := range c.nodes {
		if nd.Len() != 1 || nd.Get("x") != 1 {
			t.Fatalf("replica %d: applied=%d x=%v (write blocked by lease?)", i, nd.Len(), nd.Get("x"))
		}
	}
}

// TestLeaseReadWaitsForCatchUp: a leader paused past its lease misses a
// write its successor commits. On resume its followers elect it again
// and grant it a lease before it has caught up, so its grant set is
// live (fd-level HoldsLease) while its state is stale. The replica's
// HoldsLease must stay false until a command it submitted since has
// applied; the first read through consensus is that command, returns
// the new value, and brings lease reads back.
func TestLeaseReadWaitsForCatchUp(t *testing.T) {
	const ttl, pause, resume, read = 200, 500, 1200, 1400
	c := newTunedCluster(3, []NodeOption{WithReadLease(ttl)}, amp.WithDelay(amp.FixedDelay{D: 1}))
	l := c.nodes[0]
	c.sim.Schedule(100, func() { l.Submit(l.Ctx(), Command{Op: "put", Key: "x", Val: 1}) })
	c.sim.Schedule(pause-1, func() {
		if !l.HoldsLease(c.sim.Now()) {
			t.Error("leader 0 serves no lease reads before the pause")
		}
	})
	c.sim.CrashAt(0, pause)
	c.sim.RecoverAt(0, resume)
	c.sim.Schedule(pause+10, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: "x", Val: 2}) })
	exposed := false // the grants alone would have served a stale read
	for at := amp.Time(resume); at < read; at++ {
		c.sim.Schedule(at, func() {
			now := c.sim.Now()
			if c.nodes[1].Get("x") != 2 {
				return
			}
			exposed = exposed || (l.Omega.HoldsLease(now) && l.Get("x") != 2)
			if l.HoldsLease(now) && l.Get("x") != 2 {
				t.Errorf("at %d the resumed leader serves lease reads of x=%v, want 2", now, l.Get("x"))
			}
		})
	}
	c.sim.Schedule(read, func() { l.Submit(l.Ctx(), Command{Op: "get", Key: "x"}) })
	c.sim.Run(read + 200)
	if !exposed {
		t.Error("the schedule never gave the stale leader a live grant set: it no longer tests the barrier")
	}
	if !l.HoldsLease(c.sim.Now()) || l.Get("x") != 2 {
		t.Errorf("after a read through consensus: HoldsLease %v, x=%v; want true, 2", l.HoldsLease(c.sim.Now()), l.Get("x"))
	}
}
