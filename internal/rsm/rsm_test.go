package rsm

import (
	"testing"

	"distbasics/internal/amp"
)

// rsmCluster builds n replicas over a simulator.
type rsmCluster struct {
	sim   *amp.Sim
	nodes []*Node
}

func newRSMCluster(n int, opts ...amp.SimOption) *rsmCluster {
	c := &rsmCluster{}
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		nd := NewNode(n)
		c.nodes = append(c.nodes, nd)
		procs[i] = nd.Stack
	}
	c.sim = amp.NewSim(procs, opts...)
	return c
}

// checkMutualConsistency verifies all replicas applied identical
// sequences (prefix-comparable if lengths differ).
func checkMutualConsistency(t *testing.T, nodes []*Node, skip map[int]bool) {
	t.Helper()
	var ref []Entry
	refIdx := -1
	for i, nd := range nodes {
		if skip[i] {
			continue
		}
		if refIdx == -1 {
			ref = nd.Applied()
			refIdx = i
			continue
		}
		got := nd.Applied()
		short := len(ref)
		if len(got) < short {
			short = len(got)
		}
		for j := 0; j < short; j++ {
			if got[j].ID != ref[j].ID {
				t.Fatalf("replicas %d and %d diverge at %d: %v vs %v", refIdx, i, j, ref[j].ID, got[j].ID)
			}
		}
	}
}

func TestRSMSingleCommand(t *testing.T) {
	c := newRSMCluster(3, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Schedule(10, func() {
		c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: "x", Val: 7})
	})
	c.sim.Run(20_000)
	for i, nd := range c.nodes {
		if nd.Len() != 1 {
			t.Fatalf("replica %d applied %d commands, want 1", i, nd.Len())
		}
		if nd.Get("x") != 7 {
			t.Fatalf("replica %d x = %v, want 7", i, nd.Get("x"))
		}
	}
	checkMutualConsistency(t, c.nodes, nil)
}

func TestRSMConcurrentClientsSameOrderEverywhere(t *testing.T) {
	// Concurrent submissions from every replica: identical total order at
	// every replica, no loss, no duplication.
	for seed := int64(0); seed < 6; seed++ {
		n := 3
		c := newRSMCluster(n, amp.WithSeed(seed), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 8}))
		total := 0
		for i := 0; i < n; i++ {
			i := i
			for k := 0; k < 4; k++ {
				k := k
				total++
				c.sim.Schedule(amp.Time(5+3*k), func() {
					c.nodes[i].Submit(c.nodes[i].Ctx(), Command{Op: "put", Key: key(i, k), Val: k})
				})
			}
		}
		c.sim.Run(200_000)
		for i, nd := range c.nodes {
			if nd.Len() != total {
				t.Fatalf("seed %d: replica %d applied %d, want %d", seed, i, nd.Len(), total)
			}
			seen := map[string]bool{}
			for _, e := range nd.Applied() {
				if seen[e.ID.String()] {
					t.Fatalf("seed %d: duplicate %v at replica %d", seed, e.ID, i)
				}
				seen[e.ID.String()] = true
			}
		}
		checkMutualConsistency(t, c.nodes, nil)
	}
}

func key(i, k int) string { return string(rune('a'+i)) + string(rune('0'+k)) }

func TestRSMSurvivesReplicaCrash(t *testing.T) {
	// 5 replicas, crash 2 (t < n/2): survivors keep agreeing and applying.
	c := newRSMCluster(5, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Schedule(5, func() {
		c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: "a", Val: 1})
	})
	c.sim.CrashAt(4, 50)
	c.sim.Schedule(400, func() {
		c.nodes[2].Submit(c.nodes[2].Ctx(), Command{Op: "put", Key: "b", Val: 2})
	})
	c.sim.CrashAt(3, 600)
	c.sim.Schedule(1000, func() {
		c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "del", Key: "a"})
	})
	c.sim.Run(100_000)
	skip := map[int]bool{3: true, 4: true}
	for i := 0; i < 3; i++ {
		if c.nodes[i].Len() != 3 {
			t.Fatalf("replica %d applied %d commands, want 3", i, c.nodes[i].Len())
		}
		if c.nodes[i].Get("a") != nil {
			t.Fatalf("replica %d: a should be deleted", i)
		}
		if c.nodes[i].Get("b") != 2 {
			t.Fatalf("replica %d: b = %v", i, c.nodes[i].Get("b"))
		}
	}
	checkMutualConsistency(t, c.nodes, skip)
}

func TestRSMLeaderCrashMidStream(t *testing.T) {
	// Crash the Ω leader while commands are in flight: the new leader
	// finishes the ordering; no divergence.
	c := newRSMCluster(4, amp.WithDelay(amp.FixedDelay{D: 2}))
	for k := 0; k < 3; k++ {
		k := k
		c.sim.Schedule(amp.Time(5+2*k), func() {
			c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "put", Key: key(9, k), Val: k})
		})
	}
	c.sim.CrashAt(0, 60) // likely mid-ordering
	c.sim.Run(200_000)
	skip := map[int]bool{0: true}
	for i := 1; i < 4; i++ {
		if c.nodes[i].Len() != 3 {
			t.Fatalf("replica %d applied %d, want 3", i, c.nodes[i].Len())
		}
	}
	checkMutualConsistency(t, c.nodes, skip)
}

func TestRSMUnderPartialSynchrony(t *testing.T) {
	// Chaotic delays before GST; commands still get ordered consistently
	// and applied after stabilization (indulgence, end to end).
	for seed := int64(0); seed < 4; seed++ {
		c := newRSMCluster(3,
			amp.WithSeed(seed),
			amp.WithDelay(amp.GSTDelay{GST: 800, BeforeMin: 1, BeforeMax: 60, AfterMin: 1, AfterMax: 3}))
		c.sim.Schedule(10, func() {
			c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "put", Key: "k", Val: "v"})
		})
		c.sim.Schedule(20, func() {
			c.nodes[2].Submit(c.nodes[2].Ctx(), Command{Op: "put", Key: "k2", Val: "v2"})
		})
		c.sim.Run(300_000)
		for i, nd := range c.nodes {
			if nd.Len() != 2 {
				t.Fatalf("seed %d: replica %d applied %d, want 2", seed, i, nd.Len())
			}
		}
		checkMutualConsistency(t, c.nodes, nil)
	}
}

// TestRSMTwoCrashesAtN5: t = 2 < n/2 at n = 5 — the replicated machine
// must keep sequencing with two replicas down.
func TestRSMTwoCrashesAtN5(t *testing.T) {
	c := newRSMCluster(5, amp.WithSeed(3), amp.WithDelay(amp.FixedDelay{D: 2}))
	for i := 0; i < 5; i++ {
		i := i
		c.sim.Schedule(amp.Time(10+50*i), func() {
			nd := c.nodes[i%3] // submit only at surviving replicas
			nd.Submit(nd.Ctx(), Command{Op: "put", Key: "k", Val: i})
		})
	}
	c.sim.CrashAt(3, 60)
	c.sim.CrashAt(4, 120)
	c.sim.Run(2_000_000)

	skip := map[int]bool{3: true, 4: true}
	checkMutualConsistency(t, c.nodes, skip)
	if got := c.nodes[0].Len(); got != 5 {
		t.Fatalf("applied %d commands, want 5 despite two crashes", got)
	}
	// Last write wins on key k at every survivor.
	want := c.nodes[0].Get("k")
	for i := 1; i < 3; i++ {
		if c.nodes[i].Get("k") != want {
			t.Fatalf("replica %d final value %v, want %v", i, c.nodes[i].Get("k"), want)
		}
	}
}

// TestRSMManyCommandsManySeeds stresses slot turnover: more commands
// than half the slot budget, random delays, several seeds.
func TestRSMManyCommandsManySeeds(t *testing.T) {
	const n, cmds = 3, 10
	for seed := int64(0); seed < 5; seed++ {
		c := newRSMCluster(n, amp.WithSeed(seed), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 6}))
		for i := 0; i < cmds; i++ {
			i := i
			c.sim.Schedule(amp.Time(10+30*i), func() {
				nd := c.nodes[i%n]
				nd.Submit(nd.Ctx(), Command{Op: "put", Key: "x", Val: i})
			})
		}
		c.sim.Run(5_000_000)
		checkMutualConsistency(t, c.nodes, nil)
		for i := 0; i < n; i++ {
			if got := c.nodes[i].Len(); got != cmds {
				t.Fatalf("seed %d: replica %d applied %d, want %d", seed, i, got, cmds)
			}
		}
	}
}

// TestRSMDeleteSemantics: the KV "del" command removes keys in the
// agreed order at every replica.
func TestRSMDeleteSemantics(t *testing.T) {
	c := newRSMCluster(3, amp.WithDelay(amp.FixedDelay{D: 2}))
	c.sim.Schedule(10, func() {
		c.nodes[0].Submit(c.nodes[0].Ctx(), Command{Op: "put", Key: "a", Val: 1})
	})
	c.sim.Schedule(200, func() {
		c.nodes[1].Submit(c.nodes[1].Ctx(), Command{Op: "del", Key: "a"})
	})
	c.sim.Run(1_000_000)
	checkMutualConsistency(t, c.nodes, nil)
	for i := 0; i < 3; i++ {
		if got := c.nodes[i].Get("a"); got != nil {
			t.Fatalf("replica %d still has a=%v after del", i, got)
		}
	}
}

// TestRSMPartitionHealPrefixConsistency ports the replica machine onto
// the simulator's partition adversary: a minority island {3,4} is cut off
// during [30, 2000) while the majority keeps sequencing commands, and
// after the heal a further command is agreed. Mutual consistency must
// hold throughout as prefix consistency: every replica's applied sequence
// is a prefix of the majority's (the minority misses slots whose decide
// messages fell inside the window — TO-broadcast has no retransmission —
// but never applies anything divergent).
func TestRSMPartitionHealPrefixConsistency(t *testing.T) {
	c := newRSMCluster(5,
		amp.WithDelay(amp.FixedDelay{D: 2}),
		amp.WithAdversary(amp.Partition(30, 2000, []int{3, 4})))
	cmds := []Command{
		{Op: "put", Key: "a", Val: 1}, // before the partition: applies everywhere
		{Op: "put", Key: "b", Val: 2}, // during: applies at the majority only
		{Op: "put", Key: "c", Val: 3}, // after the heal
	}
	c.sim.Schedule(10, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), cmds[0]) })
	c.sim.Schedule(100, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), cmds[1]) })
	c.sim.Schedule(2500, func() { c.nodes[2].Submit(c.nodes[2].Ctx(), cmds[2]) })
	c.sim.Run(20_000)

	for i := 0; i < 3; i++ {
		if got := c.nodes[i].Len(); got != len(cmds) {
			t.Fatalf("majority replica %d applied %d commands, want %d", i, got, len(cmds))
		}
		if v := c.nodes[i].Get("c"); v != 3 {
			t.Fatalf("majority replica %d: c = %v, want 3", i, v)
		}
	}
	checkMutualConsistency(t, c.nodes, nil)
	for i := 3; i < 5; i++ {
		if got := c.nodes[i].Len(); got < 1 || got > len(cmds) {
			t.Fatalf("minority replica %d applied %d commands, want within [1, %d]", i, got, len(cmds))
		}
	}
}

// TestRSMAppliesEverySlotAfterLossyWindow is the replicated log's side
// of mpcons.TestSynodDecidesAfterLossyWindow: 40% of all messages
// between processes are lost during [0, 600), while the replicas submit
// commands round-robin, and nothing is lost afterwards. A replica's
// messages to itself are steps of its own turn and are never lost. Once
// the window closes, frontier gossip, fetches and re-sent payloads must
// bring every replica to every slot: all of them apply every command,
// in one order.
func TestRSMAppliesEverySlotAfterLossyWindow(t *testing.T) {
	const n, cmds = 4, 24
	for seed := int64(0); seed < 15; seed++ {
		c := newRSMCluster(n,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 5}),
			amp.WithAdversary(amp.NewDropWindow(seed*77+3, 0.4, 0, 600)))
		for i := 0; i < cmds; i++ {
			nd := c.nodes[i%n]
			c.sim.Schedule(amp.Time(25*i), func() { nd.Submit(nd.Ctx(), Command{Op: "put", Key: key(i%n, i%5), Val: i}) })
		}
		c.sim.Run(600 + 20*tbSyncPeriod)
		for i, nd := range c.nodes {
			if nd.Len() != cmds {
				t.Errorf("seed %d: replica %d applied %d of %d commands after the lossy window closed", seed, i, nd.Len(), cmds)
			}
		}
		checkMutualConsistency(t, c.nodes, nil)
	}
}
