package jobq

import (
	"encoding/gob"
	"path/filepath"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// The attempt a replica's Submit places on its own worker starts at
// placement, while the submit is being ordered (Runner.startEarly). These
// tests drive each way that attempt can meet its submit's apply on
// amp.Sim, one tick per message delay, and each checks the job completes
// exactly once at every replica with nothing reported stale.

// onceAt fails unless job id completed exactly once, by worker by, at
// every replica, with no stale command applied.
func onceAt(t *testing.T, c *jqCluster, id string, by int) {
	t.Helper()
	for j, nd := range c.nodes {
		job, _ := nd.State().Job(id)
		if job.State != Completed || job.Effects != 1 || job.DoneBy != by {
			t.Errorf("replica %d: job %s = %+v, want completed once by worker %d", j, id, job, by)
		}
		if ctr := nd.State().Counters(); ctr.Stale != 0 {
			t.Errorf("replica %d: %d stale commands, want 0", j, ctr.Stale)
		}
	}
}

// early fails unless runner j started and dropped the given numbers of
// early attempts.
func early(t *testing.T, c *jqCluster, j, starts, dropped int) {
	t.Helper()
	if s, d := c.runners[j].EarlyCounts(); s != starts || d != dropped {
		t.Errorf("runner %d: %d early starts, %d dropped, want %d and %d", j, s, d, starts, dropped)
	}
}

// TestEarlyAttemptRefusedAtApply: with MaxPerWorker 1 and worker 1
// busy, replicas 1 and 2 place a job each on idle worker 2 in the same
// turn. Replica 1's submit lands first, so replica 2's own placement is
// refused at apply: its early attempt reports nothing when its cost runs
// out, and the job completes through the scheduler's assign once worker
// 2 has room again.
func TestEarlyAttemptRefusedAtApply(t *testing.T) {
	c := newJQSim(3, Config{MaxPerWorker: 1}, 20, amp.WithDelay(amp.FixedDelay{D: 1}))
	c.runners[1].Cost = func(Job) amp.Time { return 400 } // x keeps worker 1 full
	for j := 1; j <= 2; j++ {
		c.sim.Schedule(amp.Time(2+j), c.runners[j].Start) // worker 0 never joins
	}
	c.sim.Schedule(100, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "x", 3, nil) })
	var refused bool
	c.nodes[2].Subscribe(func(ev Event, _ rsm.Entry, _ amp.Time) {
		refused = refused || ev.Kind == EvSubmitted && ev.Job == "a" && ev.Worker == -1
	})
	c.sim.Schedule(200, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "b", 3, nil) })
	c.sim.Schedule(200, func() {
		c.nodes[2].Submit(c.nodes[2].Ctx(), "a", 3, nil)
		if got := c.nodes[2].assigning["a"]; got != 2 {
			t.Errorf("replica 2 placed a on worker %d, want itself", got)
		}
	})
	c.sim.Run(1000)

	if !refused {
		t.Fatalf("setup: a's placement took; want it refused behind b: %+v", c.nodes[2].State().Jobs())
	}
	onceAt(t, c, "b", 2)
	onceAt(t, c, "a", 2)
	if a, _ := c.nodes[2].State().Job("a"); a.Attempt != 1 {
		t.Errorf("job a = %+v, want the scheduler's assign as its first attempt", a)
	}
	early(t, c, 2, 1, 1)
}

// TestDuplicateSubmitAndEarlyAttempts: replica 1 submits job a placed
// on itself, and one tick later replica 2 submits a duplicate of a,
// placed on itself too (a is unknown there yet). Replica 1's submit is
// ordered first, so the duplicate applies after it, before replica 1's
// cost runs out, and must not cancel that attempt; and replica 2's
// attempt meets a first submit that placed the job elsewhere, and is
// dropped.
func TestDuplicateSubmitAndEarlyAttempts(t *testing.T) {
	const cost = 30
	c := newJQSim(3, Config{}, cost, amp.WithDelay(amp.FixedDelay{D: 1}))
	for j, r := range c.runners {
		c.sim.Schedule(amp.Time(2+j), r.Start)
	}
	var evs []Event
	var dupAt amp.Time
	c.nodes[1].Subscribe(func(ev Event, _ rsm.Entry, at amp.Time) {
		if ev.Job == "a" {
			evs = append(evs, ev)
			if ev.Kind == EvNop {
				dupAt = at
			}
		}
	})
	const submitAt = 300
	c.sim.Schedule(submitAt, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.Schedule(submitAt+1, func() { c.nodes[2].Submit(c.nodes[2].Ctx(), "a", 3, nil) })
	c.sim.Run(1000)

	if len(evs) < 2 || evs[0].Kind != EvSubmitted || evs[0].Worker != 1 || evs[1].Kind != EvNop {
		t.Fatalf("setup: events %+v, want replica 1's placed submit, then the duplicate's no-op", evs)
	}
	if dupAt >= submitAt+cost {
		t.Fatalf("setup: the duplicate applied at %d, after replica 1's cost ran out at %d", dupAt, submitAt+cost)
	}
	onceAt(t, c, "a", 1)
	early(t, c, 1, 1, 0)
	early(t, c, 2, 1, 1)
}

// TestEarlyAttemptAcrossStop: the runner stops between its placement
// and the submit's apply, so neither the apply nor the running cost
// reports; its next Start finds the job assigned to it and re-executes
// the attempt.
func TestEarlyAttemptAcrossStop(t *testing.T) {
	c := newJQSim(3, Config{}, 20, amp.WithDelay(amp.FixedDelay{D: 1}))
	for j, r := range c.runners {
		c.sim.Schedule(amp.Time(2+j), r.Start)
	}
	c.sim.Schedule(300, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.Schedule(301, c.runners[1].Stop)
	c.sim.Run(400)
	if a, _ := c.nodes[1].State().Job("a"); a.State != Assigned || a.Worker != 1 {
		t.Fatalf("job a = %+v while the runner is stopped, want assigned to worker 1 and unreported", a)
	}
	c.sim.Schedule(400, c.runners[1].Start)
	c.sim.Run(1000)
	onceAt(t, c, "a", 1)
	early(t, c, 1, 1, 1)
}

// TestEarlyAttemptAcrossRestart: replica 1 is killed between its
// placement and the submit's apply, and a new incarnation boots from its
// journal with a new runner. The early attempt died with the process;
// the recovered replica learns the submit and runs the attempt under its
// original token.
func TestEarlyAttemptAcrossRestart(t *testing.T) {
	RegisterWire(gob.Register)
	const cost = 20
	path := filepath.Join(t.TempDir(), "r1.journal")
	c := newJQSim(3, Config{}, cost, amp.WithDelay(amp.FixedDelay{D: 1}))
	var jr *rsm.FileJournal
	boot := func() {
		var rec *rsm.Recovery
		var err error
		if jr, rec, err = rsm.OpenFileJournal(path); err != nil {
			t.Fatal(err)
		}
		c.nodes[1] = New(3, Config{}, rsm.WithJournal(jr), rsm.WithRecovery(rec))
		c.sim.Replace(1, c.nodes[1].RSM.Stack)
		r := NewRunner(c.nodes[1], 1)
		r.Defer = func(d amp.Time, f func()) { c.sim.After(1, d, f) }
		r.Cost = func(Job) amp.Time { return cost }
		c.runners[1] = r
	}
	boot()
	for j, r := range c.runners {
		c.sim.Schedule(amp.Time(2+j), r.Start)
	}
	c.sim.Schedule(300, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.KillAt(1, 301)
	c.sim.Schedule(302, func() { jr.Close() })
	c.sim.Schedule(350, func() {
		boot()
		c.runners[1].Start()
	})
	c.sim.Run(1500)
	defer jr.Close()
	onceAt(t, c, "a", 1)
	early(t, c, 1, 0, 0)
}
