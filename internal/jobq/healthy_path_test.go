package jobq

import (
	"fmt"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// TestHealthyPathTicks: five replicas on amp.Sim with one tick per
// message delay and NO scheduler pulse at all — nothing but the
// replicas' own apply path ever calls Step. A job submitted at a
// follower through Node.Submit carries its placement on the follower's
// own worker, so it runs to completion in two consensus rounds and two
// commands: submit+place (6 ticks from a follower), with the cost
// running beside it from the submit on, then complete. No assign round,
// no assign command (Assigns counts the placement), and no start
// command. CI greps this test's "ticks" line into the PR log.
func TestHealthyPathTicks(t *testing.T) {
	const cost = 3
	c := newJQSim(5, Config{}, cost, amp.WithDelay(amp.FixedDelay{D: 1}))
	done := amp.Time(-1)
	c.nodes[1].Subscribe(func(ev Event, _ rsm.Entry, at amp.Time) {
		if ev.Kind == EvCompleted && ev.Job == "a" {
			done = at
		}
	})
	for j, r := range c.runners {
		c.sim.Schedule(amp.Time(2+j), r.Start)
	}
	const submitAt = 300
	c.sim.Schedule(submitAt, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.Run(1000)

	if done < 0 {
		t.Fatalf("job never completed without a pulse: %+v", c.nodes[1].State().Jobs())
	}
	ticks := done - submitAt
	t.Logf("jobq on amp.Sim, no pulse: %d ticks from submit to completion (cost %d)", ticks, cost)
	if ticks > 12 {
		t.Errorf("submit to completion took %d ticks, want <= 12: the cost waits for the submit's apply, or an assign round, a start command or a timer is back on the path", ticks)
	}
	for j, nd := range c.nodes {
		if ctr := nd.State().Counters(); ctr.Assigns != 1 || ctr.Starts != 0 || ctr.Stale != 0 {
			t.Errorf("replica %d: %d assigns, %d starts, %d stale for one job, want 1, 0 and 0", j, ctr.Assigns, ctr.Starts, ctr.Stale)
		}
		if job, _ := nd.State().Job("a"); job.DoneBy != 1 {
			t.Errorf("replica %d: job done by worker %d, want the idle submitter 1", j, job.DoneBy)
		}
	}
}

// TestStartFromAnOlderJournalStillCompletes: no runner proposes
// CmdStart, but a journal written by an older build holds one between
// a job's submit and its complete. Here the worker's replica proposes
// it the moment the placement applies, as an older runner did, and the
// worker then restarts its runner on the Running job. The start still
// applies, and the job still completes exactly once at every replica.
func TestStartFromAnOlderJournalStillCompletes(t *testing.T) {
	c := newJQSim(3, Config{}, 20, amp.WithDelay(amp.FixedDelay{D: 1}))
	for j, r := range c.runners {
		c.sim.Schedule(amp.Time(2+j), r.Start)
	}
	for w, nd := range c.nodes {
		nd.Subscribe(func(ev Event, _ rsm.Entry, _ amp.Time) {
			switch {
			case ev.Job != "a" || ev.Worker != w:
			case ev.Kind == EvSubmitted:
				nd.Propose(nd.Ctx(), Cmd{Kind: CmdStart, Job: "a", Worker: w, Attempt: ev.Attempt})
			case ev.Kind == EvStarted:
				c.runners[w].Stop()
				c.runners[w].Start()
			}
		})
	}
	c.sim.Schedule(300, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.Run(1000)

	for j, nd := range c.nodes {
		job, _ := nd.State().Job("a")
		ctr := nd.State().Counters()
		if job.State != Completed || job.Effects != 1 || ctr.Starts != 1 || ctr.Completions != 1 {
			t.Errorf("replica %d: job %+v, %d starts, %d completions; want completed once after one start", j, job, ctr.Starts, ctr.Completions)
		}
	}
}

// playedCluster is newJQSim with the runners silenced: the test joins
// workers and plays their part itself, so jobs stay where they land.
func playedCluster(n int, cfg Config, workers ...int) *jqCluster {
	c := newJQSim(n, cfg, 1, amp.WithDelay(amp.FixedDelay{D: 1}))
	for _, r := range c.runners {
		r.Stop()
	}
	c.sim.Schedule(100, func() {
		for _, w := range workers {
			c.nodes[0].Propose(c.nodes[0].Ctx(), Cmd{Kind: CmdJoin, Worker: w})
		}
	})
	c.sim.Run(150)
	return c
}

// TestPlacementRaceKeepsTheCap: MaxPerWorker is 1 and two replicas, in
// the same turn of the clock, each place a job onto the same idle
// worker; both submits are decided in one batch. The cap is checked
// where each lands in the total order, so exactly one placement takes;
// the other job is Pending and the scheduler then gives it to the other
// worker.
func TestPlacementRaceKeepsTheCap(t *testing.T) {
	c := playedCluster(5, Config{MaxPerWorker: 1}, 3, 4)
	slots := c.nodes[0].RSM.SlotsDelivered()
	c.sim.Schedule(200, func() { c.nodes[1].Submit(c.nodes[1].Ctx(), "a", 3, nil) })
	c.sim.Schedule(200, func() { c.nodes[2].Submit(c.nodes[2].Ctx(), "b", 3, nil) })
	c.sim.Run(300)

	for j, nd := range c.nodes {
		st := nd.State()
		a, _ := st.Job("a")
		b, _ := st.Job("b")
		if a.State != Assigned || a.Worker != 3 || a.Attempt != 1 {
			t.Errorf("replica %d: job a = %+v, want placed on worker 3", j, a)
		}
		if b.State != Assigned || b.Worker != 4 || b.Attempt != 1 {
			t.Errorf("replica %d: job b = %+v, want refused at worker 3 and assigned to worker 4", j, b)
		}
		if ctr := st.Counters(); ctr.Assigns != 2 || ctr.Stale != 0 {
			t.Errorf("replica %d: %d assigns, %d stale, want 2 and 0", j, ctr.Assigns, ctr.Stale)
		}
		if len(nd.assigning) != 0 {
			t.Errorf("replica %d: in-flight table not empty: %v", j, nd.assigning)
		}
	}
	if got := c.nodes[0].RSM.SlotsDelivered() - slots; got != 2 {
		t.Errorf("two racing submits and one assign took %d slots, want 2", got)
	}
}

// TestRefusedPlacementIsRescheduledAtOnce: the leader itself places a
// job on a worker whose expiry is ordered just before the submit. The
// placement is refused at apply, the job is Pending — and the leader's
// own in-flight entry for it must be gone by the time its scheduler pass
// runs in that same turn, or no pass would ever assign the job.
func TestRefusedPlacementIsRescheduledAtOnce(t *testing.T) {
	c := playedCluster(3, Config{}, 0, 2)
	nd := c.nodes[0]
	var submitted, assigned amp.Time
	var onSubmit Event
	nd.Subscribe(func(ev Event, _ rsm.Entry, at amp.Time) {
		switch {
		case ev.Job != "a":
		case ev.Kind == EvSubmitted:
			submitted, onSubmit = at, ev
		case ev.Kind == EvAssigned:
			assigned = at
		}
	})
	// x lands on the leader (itself on ties), so a's least-loaded worker is 2.
	c.sim.Schedule(200, func() { nd.Submit(nd.Ctx(), "x", 3, nil) })
	c.sim.Schedule(300, func() {
		nd.Propose(nd.Ctx(), Cmd{Kind: CmdExpire, Worker: 2})
		nd.Submit(nd.Ctx(), "a", 3, nil)
		if got := nd.assigning["a"]; got != 2 {
			t.Errorf("leader placed a on worker %d, want the idle worker 2", got)
		}
	})
	c.sim.Run(400)

	if onSubmit.Worker != -1 || onSubmit.Attempt != 0 {
		t.Errorf("submit event %+v, want Worker -1, Attempt 0: worker 2 was expired before it", onSubmit)
	}
	if assigned == 0 || assigned-submitted > 5 {
		t.Errorf("a's submit applied at %d, its assignment at %d, want one consensus round (5 ticks) later", submitted, assigned)
	}
	if a, _ := nd.State().Job("a"); a.State != Assigned || a.Worker != 0 {
		t.Errorf("job a = %+v, want assigned to worker 0", a)
	}
	if ctr := nd.State().Counters(); ctr.Stale != 0 || ctr.Assigns != 2 {
		t.Errorf("%d stale, %d assigns, want 0 and 2", ctr.Stale, ctr.Assigns)
	}
}

// TestDuplicateSubmitLeavesNoTrace: a client's retry of a submit — of
// an id this replica knows, and of one it does not know yet because the
// first copy is still in flight — is a no-op at apply: no counter moves
// and no in-flight entry outlives it at any replica.
func TestDuplicateSubmitLeavesNoTrace(t *testing.T) {
	c := playedCluster(3, Config{}, 1)
	nd := c.nodes[1]
	var evs []Event
	nd.Subscribe(func(ev Event, _ rsm.Entry, _ amp.Time) { evs = append(evs, ev) })
	c.sim.Schedule(200, func() {
		nd.Submit(nd.Ctx(), "a", 3, nil)
		nd.Submit(nd.Ctx(), "a", 3, nil) // a is unknown here until the first applies
	})
	c.sim.Run(300)
	if len(evs) != 2 || evs[0].Kind != EvSubmitted || evs[0].Worker != 1 || evs[1].Kind != EvNop {
		t.Fatalf("events %+v, want a placed submit and a no-op", evs)
	}
	before := nd.State().Counters()
	c.sim.Schedule(300, func() { nd.Submit(nd.Ctx(), "a", 3, nil) })
	c.sim.Schedule(300, func() { c.nodes[2].Submit(c.nodes[2].Ctx(), "a", 3, nil) })
	c.sim.Run(400)
	if len(evs) != 4 || evs[2].Kind != EvNop || evs[3].Kind != EvNop {
		t.Errorf("events %+v, want two more no-ops", evs)
	}
	if after := nd.State().Counters(); after != before || after.Submitted != 1 || after.Assigns != 1 {
		t.Errorf("counters %+v after the duplicates, %+v before, want them equal with one submit and one assign", after, before)
	}
	for j, n := range c.nodes {
		if len(n.assigning) != 0 {
			t.Errorf("replica %d: in-flight table not empty: %v", j, n.assigning)
		}
	}
}

// TestStepCostIgnoresHistory: a scheduler pass reads the Pending list
// and the per-worker loads, not every job ever submitted — its cost with
// 10,000 completed jobs behind one Pending job is that with 100.
func TestStepCostIgnoresHistory(t *testing.T) {
	behind := func(history int) *Node {
		nd := playedCluster(3, Config{MaxPerWorker: 1}, 0).nodes[0]
		st := nd.State()
		for i := 0; i < history; i++ {
			id := fmt.Sprint("h", i)
			st.Apply(Cmd{Kind: CmdSubmit, Job: id, Worker: 0, Attempt: 1, Cap: 1})
			st.Apply(Cmd{Kind: CmdComplete, Job: id, Worker: 0, Attempt: 1})
		}
		st.Apply(Cmd{Kind: CmdSubmit, Job: "busy", Worker: 0, Attempt: 1, Cap: 1})
		st.Apply(Cmd{Kind: CmdSubmit, Job: "waits"}) // Pending behind the cap: every pass looks at it
		return nd
	}
	nodes := []*Node{behind(100), behind(10_000)}
	best := []time.Duration{1 << 62, 1 << 62}
	for rep := 0; rep < 40; rep++ { // alternating, so a slow stretch of the host hits both
		nd := nodes[rep%2]
		t0 := time.Now()
		for i := 0; i < 500; i++ {
			nd.Step(nd.Ctx()) // the simulation is stopped and the pass proposes nothing
		}
		best[rep%2] = min(best[rep%2], time.Since(t0)/500)
	}
	for _, nd := range nodes {
		if w, _ := nd.State().Job("waits"); w.State != Pending || len(nd.assigning) != 0 {
			t.Fatalf("setup: job %+v, in flight %v, want it Pending behind the full worker", w, nd.assigning)
		}
	}
	t.Logf("one scheduler pass: %v behind 100 completed jobs, %v behind 10,000", best[0], best[1])
	if best[1] > 2*best[0] {
		t.Errorf("a pass costs %v behind 10,000 completed jobs and %v behind 100, want within 2x: something walks the history", best[1], best[0])
	}
}

// TestApplyDrivenPassPerBatch is the re-entrancy fence. The scheduler
// pass proposes from inside the rsm delivery loop, so one decided batch
// that carries several schedulable events runs several passes before
// any of their proposals is decided. Here one batch completes job a
// (freeing worker 1, whose cap is 1) and submits job c while b is
// already waiting: the first pass hands b to the freed worker, the
// second must count that in-flight assignment — not hand c to the same
// "idle" worker — and neither job may be proposed twice.
func TestApplyDrivenPassPerBatch(t *testing.T) {
	c := newJQSim(3, Config{MaxPerWorker: 1}, 1, amp.WithDelay(amp.FixedDelay{D: 1}))
	sim, nd := c.sim, c.nodes[1]
	for _, r := range c.runners {
		r.Stop() // the test plays worker 1 itself
	}
	propose := func(at amp.Time, cmds ...Cmd) {
		sim.Schedule(at, func() {
			for _, cmd := range cmds {
				nd.Propose(nd.Ctx(), cmd)
			}
		})
	}
	// Worker 1 joins and takes a; b queues behind the cap.
	propose(100, Cmd{Kind: CmdJoin, Worker: 1})
	propose(150, Cmd{Kind: CmdSubmit, Job: "a", Budget: 3})
	propose(200, Cmd{Kind: CmdSubmit, Job: "b", Budget: 3})
	sim.Run(250)
	if a, _ := nd.State().Job("a"); a.State != Assigned || a.Worker != 1 {
		t.Fatalf("setup: job a = %+v, want assigned to worker 1", a)
	}
	if b, _ := nd.State().Job("b"); b.State != Pending {
		t.Fatalf("setup: job b = %+v, want pending behind the cap", b)
	}
	slots := nd.RSM.SlotsDelivered()
	propose(300, Cmd{Kind: CmdComplete, Job: "a", Worker: 1, Attempt: 1}, Cmd{Kind: CmdSubmit, Job: "c", Budget: 3})
	sim.Run(400)

	// complete+submit shared a slot; the one assign they caused is the
	// only other slot.
	if got := nd.RSM.SlotsDelivered() - slots; got != 2 {
		t.Errorf("complete(a)+submit(c) and their scheduling took %d slots, want 2 (one batch, one assign)", got)
	}
	st := nd.State()
	if b, _ := st.Job("b"); b.State != Assigned || b.Worker != 1 || b.Attempt != 1 {
		t.Errorf("job b = %+v, want assigned once to the freed worker", b)
	}
	if cj, _ := st.Job("c"); cj.State != Pending || cj.Attempt != 0 {
		t.Errorf("job c = %+v, want pending: worker 1 is at its cap with b in flight", cj)
	}
	if ctr := st.Counters(); ctr.Assigns != 2 || ctr.Stale != 0 {
		t.Errorf("%d assigns, %d stale, want 2 (a, b) and 0", ctr.Assigns, ctr.Stale)
	}
	// c is scheduled — once — when b's completion frees the worker.
	propose(400, Cmd{Kind: CmdComplete, Job: "b", Worker: 1, Attempt: 1})
	sim.Run(500)
	if cj, _ := st.Job("c"); cj.State != Assigned || cj.Attempt != 1 {
		t.Errorf("job c = %+v, want assigned once after b completed", cj)
	}
	if ctr := st.Counters(); ctr.Assigns != 3 {
		t.Errorf("%d assigns for three jobs, want 3", ctr.Assigns)
	}
}
