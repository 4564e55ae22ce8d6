package jobq

import (
	"testing"

	"distbasics/internal/amp"
)

// jqCluster wires n jobq replicas (each also a worker) into one amp
// simulation, with the scheduler pulse driven on every replica.
// Runners are constructed but not started — tests schedule Start
// themselves to control join order.
type jqCluster struct {
	sim     *amp.Sim
	nodes   []*Node
	runners []*Runner
}

func newJQCluster(t *testing.T, n int, cfg Config, cost amp.Time, advs ...amp.Adversary) *jqCluster {
	t.Helper()
	c := newJQSim(n, cfg, cost, amp.WithSeed(7),
		amp.WithDelay(amp.UniformDelay{Min: 1, Max: 3}),
		amp.WithAdversary(advs...))
	for j := 0; j < n; j++ {
		j := j
		var pulse func()
		pulse = func() {
			if !c.sim.Crashed(j) {
				c.nodes[j].Step(c.nodes[j].Ctx())
			}
			c.sim.Schedule(c.sim.Now()+c.nodes[j].Config().StepEvery, pulse)
		}
		c.sim.Schedule(amp.Time(5+j), pulse)
	}
	return c
}

// newJQSim is the cluster without any pulse: nothing calls Step but the
// replicas' own apply path.
func newJQSim(n int, cfg Config, cost amp.Time, opts ...amp.SimOption) *jqCluster {
	c := &jqCluster{nodes: make([]*Node, n), runners: make([]*Runner, n)}
	procs := make([]amp.Process, n)
	for j := 0; j < n; j++ {
		c.nodes[j] = New(n, cfg)
		procs[j] = c.nodes[j].RSM.Stack
	}
	c.sim = amp.NewSim(procs, opts...)
	for j := 0; j < n; j++ {
		j := j
		r := NewRunner(c.nodes[j], j)
		r.Defer = func(d amp.Time, f func()) { c.sim.After(j, d, f) }
		r.Cost = func(Job) amp.Time { return cost }
		c.runners[j] = r
	}
	return c
}

// TestLeaseLapseReassignStaleCompletion is the fd-lease reassignment
// race, end to end over the real detector/consensus stack: worker 2 is
// assigned a job and then isolated; its suspicion ages past the grace
// period, the scheduler expires its lease and reassigns the job;
// meanwhile the isolated worker finishes the work and reports it once,
// a proposal its rsm replica sends again every sync period while the
// partition lasts. When the partition heals, the original worker's
// completion — carrying attempt 1 as its idempotency token — must lose
// to the apply-time validation at every replica: exactly one effect,
// credited to the reassigned worker, and the stale report counted as
// such.
func TestLeaseLapseReassignStaleCompletion(t *testing.T) {
	cfg := Config{
		Grace:     150,
		StepEvery: 25,
		Retry:     RetryPolicy{Base: 40, Cap: 200, Seed: 11},
	}
	// Isolation window: opens after the first assignment lands on
	// worker 2, outlives the grace period by far, and closes only after
	// the reassigned attempt has completed.
	const heal = 2500
	c := newJQCluster(t, 3, cfg, 600, amp.Isolate(150, heal, 2))
	sim, nodes := c.sim, c.nodes

	// Only worker 2 joins before the job arrives, so the assignment
	// must land on it; 0 and 1 join while 2 is already isolated and
	// become the reassignment targets.
	sim.Schedule(2, c.runners[2].Start)
	sim.Schedule(30, func() {
		nodes[0].Propose(nodes[0].Ctx(), Cmd{Kind: CmdSubmit, Job: "a", Budget: 3, Payload: 1})
	})
	sim.Schedule(200, c.runners[0].Start)
	sim.Schedule(200, c.runners[1].Start)

	// Belt and braces for the race: the moment the partition heals, the
	// reappearing worker explicitly reports its stale attempt-1
	// completion (on top of the report its replica is still sending).
	sim.Schedule(heal+1, func() {
		nodes[2].Propose(nodes[2].Ctx(), Cmd{Kind: CmdComplete, Job: "a", Worker: 2, Attempt: 1, Result: "stale"})
	})

	sim.Run(12_000)

	for j, nd := range nodes {
		st := nd.State()
		job, ok := st.Job("a")
		if !ok {
			t.Fatalf("replica %d never accepted the job", j)
		}
		if job.State != Completed {
			t.Fatalf("replica %d: job ended %s, want completed (job %+v)", j, job.State, job)
		}
		if job.Effects != 1 {
			t.Fatalf("replica %d: exactly-once violated: %d effects", j, job.Effects)
		}
		if job.DoneBy == 2 {
			t.Fatalf("replica %d: completion credited to the expired worker: %+v", j, job)
		}
		if job.Attempt < 2 {
			t.Fatalf("replica %d: completed on attempt %d, want a reassigned attempt ≥ 2", j, job.Attempt)
		}
		if st.Counters().Expiries == 0 {
			t.Fatalf("replica %d: worker 2's lease never expired", j)
		}
		if st.Counters().Stale == 0 {
			t.Fatalf("replica %d: the stale completion was never observed/rejected", j)
		}
		if !st.Alive(2) {
			t.Fatalf("replica %d: worker 2 never rejoined after the heal", j)
		}
	}
}

// TestCrashWindowResumesAssignedWork: a worker pauses mid-attempt
// (a crash window) and recovers before its lease grace expires; its
// deferred work waits out the pause, so the still-assigned attempt
// completes with the ORIGINAL token, and the completion counts exactly
// once. A second Start after the recovery (the rejoin + re-execute
// path cmd/basicsjobd runs after a kill -9 restart) changes nothing.
func TestCrashWindowResumesAssignedWork(t *testing.T) {
	cfg := Config{
		Grace:     2000, // grace outlives the crash: no expiry, the attempt survives
		StepEvery: 25,
		Retry:     RetryPolicy{Base: 40, Cap: 200, Seed: 13},
	}
	c := newJQCluster(t, 3, cfg, 400)
	sim, nodes := c.sim, c.nodes
	sim.CrashAt(2, 300)
	sim.RecoverAt(2, 900)

	sim.Schedule(2, c.runners[2].Start)
	sim.Schedule(30, func() {
		nodes[0].Propose(nodes[0].Ctx(), Cmd{Kind: CmdSubmit, Job: "a", Budget: 2, Payload: 1})
	})
	sim.Schedule(910, c.runners[2].Start)

	sim.Run(8_000)

	for j, nd := range nodes {
		job, ok := nd.State().Job("a")
		if !ok {
			t.Fatalf("replica %d never accepted the job", j)
		}
		if job.State != Completed || job.Effects != 1 || job.DoneBy != 2 || job.Attempt != 1 {
			t.Fatalf("replica %d: want attempt-1 completion by the recovered worker, got %+v", j, job)
		}
	}
}
