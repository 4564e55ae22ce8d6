package jobq

import (
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// TestHealthyPathTicks: five replicas on amp.Sim with one tick per
// message delay and NO scheduler pulse at all — nothing but the
// replicas' own apply path ever calls Step. A job submitted at a
// follower still runs to completion, in exactly the time of its four
// consensus commands in sequence (submit 6 ticks from a follower;
// assign, start and complete 5 each — the cost runs behind start's
// slot): the scheduler ran when the submit applied, and the runner
// acknowledged in the turn its assignment applied. CI greps this test's
// "ticks" line into the PR log.
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
	c.sim.Schedule(submitAt, func() {
		c.nodes[1].Propose(c.nodes[1].Ctx(), Cmd{Kind: CmdSubmit, Job: "a", Budget: 3})
	})
	c.sim.Run(1000)

	if done < 0 {
		t.Fatalf("job never completed without a pulse: %+v", c.nodes[1].State().Jobs())
	}
	ticks := done - submitAt
	t.Logf("jobq on amp.Sim, no pulse: %d ticks from submit to completion (cost %d)", ticks, cost)
	if ticks > 6+5+5+5 {
		t.Errorf("submit to completion took %d ticks, want <= 21: something waited for a timer", ticks)
	}
	for j, nd := range c.nodes {
		if ctr := nd.State().Counters(); ctr.Assigns != 1 || ctr.Stale != 0 {
			t.Errorf("replica %d: %d assigns, %d stale for one job, want 1 and 0", j, ctr.Assigns, ctr.Stale)
		}
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
