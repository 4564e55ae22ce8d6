package jobq

import (
	"testing"

	"distbasics/internal/splitmix"
)

// TestLifecycleHappyPath walks submit→assign→start→complete and checks
// the record and counters at each step.
func TestLifecycleHappyPath(t *testing.T) {
	st := NewState()
	if ev := st.Apply(Cmd{Kind: CmdJoin, Worker: 1}); ev.Kind != EvWorkerJoined {
		t.Fatalf("join: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdSubmit, Job: "a", Budget: 2, Payload: 7}); ev.Kind != EvSubmitted {
		t.Fatalf("submit: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 1, Attempt: 1}); ev.Kind != EvAssigned {
		t.Fatalf("assign: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdStart, Job: "a", Worker: 1, Attempt: 1}); ev.Kind != EvStarted {
		t.Fatalf("start: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdComplete, Job: "a", Worker: 1, Attempt: 1, Result: "r"}); ev.Kind != EvCompleted {
		t.Fatalf("complete: %+v", ev)
	}
	j, _ := st.Job("a")
	if j.State != Completed || j.Effects != 1 || j.DoneBy != 1 || j.Result != "r" || j.Attempt != 1 {
		t.Fatalf("job record: %+v", j)
	}
	ctr := st.Counters()
	if ctr.Submitted != 1 || ctr.Assigns != 1 || ctr.Starts != 1 || ctr.Completions != 1 || ctr.Stale != 0 {
		t.Fatalf("counters: %+v", ctr)
	}
}

// TestDuplicateAndInvalidCommandsRejected covers the validation that
// makes duplicate/conflicting proposals harmless.
func TestDuplicateAndInvalidCommandsRejected(t *testing.T) {
	st := NewState()
	st.Apply(Cmd{Kind: CmdJoin, Worker: 0})
	st.Apply(Cmd{Kind: CmdJoin, Worker: 1})
	st.Apply(Cmd{Kind: CmdSubmit, Job: "a", Budget: 3})

	if ev := st.Apply(Cmd{Kind: CmdSubmit, Job: "a", Budget: 3}); ev.Kind != EvNop {
		t.Fatalf("duplicate submit accepted: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 5, Attempt: 1}); ev.Kind != EvNop {
		t.Fatalf("assign to unjoined worker accepted: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 0, Attempt: 2}); ev.Kind != EvNop {
		t.Fatalf("assign with wrong attempt accepted: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 0, Attempt: 1}); ev.Kind != EvAssigned {
		t.Fatalf("assign: %+v", ev)
	}
	// A racing second assign (two leaders during a partition) loses.
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 1, Attempt: 1}); ev.Kind != EvNop {
		t.Fatalf("double assign accepted: %+v", ev)
	}
	if st.Counters().Assigns != 1 {
		t.Fatalf("assigns = %d, want 1", st.Counters().Assigns)
	}
}

// TestStaleCompletionRejected is the idempotency-token rule in
// isolation: after a reassignment, the original worker's completion
// (old attempt number) must be rejected, and the accepted completion
// must be the only effect. The full-stack version of this race is
// TestLeaseLapseReassignStaleCompletion.
func TestStaleCompletionRejected(t *testing.T) {
	st := NewState()
	st.Apply(Cmd{Kind: CmdJoin, Worker: 0})
	st.Apply(Cmd{Kind: CmdJoin, Worker: 1})
	st.Apply(Cmd{Kind: CmdSubmit, Job: "a", Budget: 3})
	st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 0, Attempt: 1})

	// Worker 0's lease lapses; its job is released and reassigned.
	if ev := st.Apply(Cmd{Kind: CmdExpire, Worker: 0}); ev.Kind != EvWorkerExpired || len(ev.Released) != 1 {
		t.Fatalf("expire: %+v", ev)
	}
	st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 1, Attempt: 2})

	// The reappearing worker 0 reports its stale attempt — before and
	// after the new attempt completes.
	if ev := st.Apply(Cmd{Kind: CmdComplete, Job: "a", Worker: 0, Attempt: 1, Result: "stale"}); ev.Kind != EvStale {
		t.Fatalf("stale completion accepted: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdComplete, Job: "a", Worker: 1, Attempt: 2, Result: "good"}); ev.Kind != EvCompleted {
		t.Fatalf("real completion: %+v", ev)
	}
	if ev := st.Apply(Cmd{Kind: CmdComplete, Job: "a", Worker: 0, Attempt: 1, Result: "stale"}); ev.Kind != EvStale {
		t.Fatalf("post-terminal stale completion accepted: %+v", ev)
	}
	j, _ := st.Job("a")
	if j.Effects != 1 || j.DoneBy != 1 || j.Result != "good" {
		t.Fatalf("effects leaked: %+v", j)
	}
	if st.Counters().Stale != 2 {
		t.Fatalf("stale = %d, want 2", st.Counters().Stale)
	}
}

// TestRetryBudgetDeadLetters walks the circuit breaker: transient
// failures return to Pending with the attempt count intact, and the
// budget-exhausting failure parks the job Failed with no effects.
func TestRetryBudgetDeadLetters(t *testing.T) {
	st := NewState()
	st.Apply(Cmd{Kind: CmdJoin, Worker: 0})
	st.Apply(Cmd{Kind: CmdSubmit, Job: "p", Budget: 3})
	for attempt := 1; attempt <= 3; attempt++ {
		if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "p", Worker: 0, Attempt: attempt}); ev.Kind != EvAssigned {
			t.Fatalf("assign attempt %d: %+v", attempt, ev)
		}
		ev := st.Apply(Cmd{Kind: CmdFail, Job: "p", Worker: 0, Attempt: attempt, Err: "poison"})
		want := EvRetried
		if attempt == 3 {
			want = EvDeadLettered
		}
		if ev.Kind != want {
			t.Fatalf("fail attempt %d: got %v want %v", attempt, ev.Kind, want)
		}
	}
	j, _ := st.Job("p")
	if j.State != Failed || j.Attempt != 3 || j.Effects != 0 || j.Err != "poison" {
		t.Fatalf("dead letter record: %+v", j)
	}
	// Parked means parked: no further assignment is valid.
	if ev := st.Apply(Cmd{Kind: CmdAssign, Job: "p", Worker: 0, Attempt: 4}); ev.Kind != EvNop {
		t.Fatalf("assign past budget accepted: %+v", ev)
	}
	ctr := st.Counters()
	if ctr.Retries != 2 || ctr.DeadLetters != 1 {
		t.Fatalf("counters: %+v", ctr)
	}
}

// TestExpiryOnFinalAttemptDeadLetters: losing a worker during the last
// budgeted attempt must not restart the cycle.
func TestExpiryOnFinalAttemptDeadLetters(t *testing.T) {
	st := NewState()
	st.Apply(Cmd{Kind: CmdJoin, Worker: 0})
	st.Apply(Cmd{Kind: CmdSubmit, Job: "a", Budget: 1})
	st.Apply(Cmd{Kind: CmdAssign, Job: "a", Worker: 0, Attempt: 1})
	ev := st.Apply(Cmd{Kind: CmdExpire, Worker: 0})
	if ev.Kind != EvWorkerExpired || len(ev.Dead) != 1 || len(ev.Released) != 0 {
		t.Fatalf("expire: %+v", ev)
	}
	j, _ := st.Job("a")
	if j.State != Failed || j.Effects != 0 {
		t.Fatalf("job: %+v", j)
	}
}

// TestBackoffCurve checks the transport.Policy-shaped schedule:
// jitterless Base doubling to Cap, never below 1.
func TestBackoffCurve(t *testing.T) {
	p := RetryPolicy{Base: 50, Cap: 300, JitterPct: -1}.withDefaults()
	rng := splitmix.New(1)
	want := []int64{50, 100, 200, 300, 300}
	for i, w := range want {
		if got := p.Backoff(i+1, &rng); int64(got) != w {
			t.Fatalf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestBackoffJitterBoundsAndDeterminism: jitter stays within ±pct and
// a same-seeded stream replays identically.
func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	p := RetryPolicy{Base: 100, Cap: 1000, JitterPct: 25, Seed: 42}.withDefaults()
	a, b := splitmix.New(42), splitmix.New(42)
	for i := 1; i <= 20; i++ {
		da := p.Backoff(i, &a)
		if db := p.Backoff(i, &b); da != db {
			t.Fatalf("attempt %d: %d != %d for same seed", i, da, db)
		}
		base := int64(100)
		for k := 1; k < i; k++ {
			base *= 2
			if base >= 1000 {
				base = 1000
				break
			}
		}
		lo, hi := base-base*25/100, base+base*25/100
		if int64(da) < lo || int64(da) > hi {
			t.Fatalf("attempt %d: backoff %d outside [%d,%d]", i, da, lo, hi)
		}
	}
}
