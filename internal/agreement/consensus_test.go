package agreement

import (
	"fmt"
	"testing"

	"distbasics/internal/shm"
)

func TestCASConsensusSequential(t *testing.T) {
	c := NewCASConsensus()
	p0, p1 := shm.NewDirectProc(0), shm.NewDirectProc(1)
	if got := c.Propose(p0, "a"); got != "a" {
		t.Fatalf("first Propose = %v", got)
	}
	if got := c.Propose(p1, "b"); got != "a" {
		t.Fatalf("second Propose = %v, want a", got)
	}
}

func TestLLSCConsensusSequential(t *testing.T) {
	c := NewLLSCConsensus()
	p0, p1 := shm.NewDirectProc(0), shm.NewDirectProc(1)
	if got := c.Propose(p0, 1); got != 1 {
		t.Fatalf("first Propose = %v", got)
	}
	if got := c.Propose(p1, 2); got != 1 {
		t.Fatalf("second Propose = %v", got)
	}
}

func TestStickyConsensusSequentialAndPanics(t *testing.T) {
	c := NewStickyConsensus()
	p := shm.NewDirectProc(0)
	if got := c.Propose(p, 0); got != 0 {
		t.Fatalf("Propose = %v", got)
	}
	if got := c.Propose(p, 1); got != 0 {
		t.Fatalf("Propose = %v, want sticky 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-binary proposal")
		}
	}()
	c.Propose(p, 7)
}

// verifyOpts is the per-execution step budget the exhaustive tests run
// under (a cutoff reads as a termination violation).
var verifyOpts = shm.ExploreOpts{MaxSteps: 5000}

// verify2 exhaustively verifies a 2-process consensus object, with crash
// branching (the wait-free model allows n-1 = 1 crash).
func verify2(t *testing.T, name string, factory func() Consensus) {
	t.Helper()
	res := VerifyConsensusExhaustive([]any{"x", "y"}, factory, true, verifyOpts)
	if res.Violation != "" {
		t.Fatalf("%s (n=2): %s", name, res.Violation)
	}
	if res.Executions == 0 {
		t.Fatalf("%s: no executions explored", name)
	}
	t.Logf("%s n=2: %d executions, all correct", name, res.Executions)
}

func TestExhaustive2ProcTAS(t *testing.T) {
	verify2(t, "TestAndSet", func() Consensus { return NewTASConsensus2() })
}

func TestExhaustive2ProcQueue(t *testing.T) {
	verify2(t, "queue", func() Consensus { return NewQueueConsensus2() })
}

func TestExhaustive2ProcFAA(t *testing.T) {
	verify2(t, "Fetch&Add", func() Consensus { return NewFAAConsensus2() })
}

func TestExhaustive2ProcCAS(t *testing.T) {
	verify2(t, "Compare&Swap", func() Consensus { return NewCASConsensus() })
}

func TestExhaustive2ProcLLSC(t *testing.T) {
	verify2(t, "LL/SC", func() Consensus { return NewLLSCConsensus() })
}

func TestExhaustive2ProcSticky(t *testing.T) {
	res := VerifyConsensusExhaustive([]any{0, 1}, func() Consensus { return NewStickyConsensus() }, true, verifyOpts)
	if res.Violation != "" {
		t.Fatalf("sticky bit (n=2): %s", res.Violation)
	}
}

func TestExhaustive3ProcCAS(t *testing.T) {
	res := VerifyConsensusExhaustive([]any{"a", "b", "c"}, func() Consensus { return NewCASConsensus() }, true, verifyOpts)
	if res.Violation != "" {
		t.Fatalf("CAS (n=3): %s", res.Violation)
	}
	t.Logf("CAS n=3: %d executions", res.Executions)
}

func TestExhaustive3ProcSticky(t *testing.T) {
	res := VerifyConsensusExhaustive([]any{1, 0, 1}, func() Consensus { return NewStickyConsensus() }, true, verifyOpts)
	if res.Violation != "" {
		t.Fatalf("sticky bit (n=3): %s", res.Violation)
	}
}

func TestRegisterOnlyConsensusImpossibleEmpirically(t *testing.T) {
	// §4.2 impossibility, exhibited: the natural register-only protocol
	// has a violating schedule even for n=2 WITHOUT crashes.
	res := VerifyConsensusExhaustive([]any{"x", "y"}, func() Consensus {
		return NewNaiveRegisterConsensus(2)
	}, false, verifyOpts)
	if res.Violation == "" {
		t.Fatal("register-only protocol verified correct — impossibility result contradicted!")
	}
	t.Logf("register protocol violation found: %s", res.Violation)
}

func TestTASConsensusNumberExactly2(t *testing.T) {
	// The natural 3-process generalization of the Test&Set protocol must
	// fail: Test&Set has consensus number exactly 2.
	res := VerifyConsensusExhaustive([]any{"a", "b", "c"}, func() Consensus {
		return NewTASConsensusN(3)
	}, false, verifyOpts)
	if res.Violation == "" {
		t.Fatal("TAS 3-process protocol verified correct — but cons#(TAS)=2")
	}
	t.Logf("TAS n=3 violation found: %s", res.Violation)
}

func TestHierarchyTableShape(t *testing.T) {
	rows := Hierarchy()
	if len(rows) < 7 {
		t.Fatalf("hierarchy has %d rows, want >= 7", len(rows))
	}
	byName := map[string]int{}
	for _, r := range rows {
		byName[r.Object] = r.ConsensusNumber
	}
	tests := []struct {
		object string
		want   int
	}{
		{"read/write register", 1},
		{"Test&Set", 2},
		{"Fetch&Add", 2},
		{"queue", 2},
		{"Compare&Swap", Infinity},
		{"LL/SC", Infinity},
		{"sticky bit", Infinity},
	}
	for _, tt := range tests {
		if got, ok := byName[tt.object]; !ok || got != tt.want {
			t.Errorf("consensus number of %s = %d (present %v), want %d", tt.object, got, ok, tt.want)
		}
	}
}

func TestConsensusUnderRandomSchedulesWithCrashes(t *testing.T) {
	// Stress CAS consensus with 5 processes, random schedules, up to 4
	// crashes: agreement/validity must hold among finishers.
	for seed := int64(0); seed < 40; seed++ {
		obj := NewCASConsensus()
		proposals := []any{"v0", "v1", "v2", "v3", "v4"}
		bodies := make([]func(*shm.Proc) any, 5)
		for i := range bodies {
			v := proposals[i]
			bodies[i] = func(p *shm.Proc) any { return obj.Propose(p, v) }
		}
		pol := shm.NewRandomPolicy(seed)
		pol.CrashProb = 0.1
		pol.MaxCrashes = 4
		out := shm.Execute(&shm.Run{Bodies: bodies}, pol, 0)
		if msg := CheckConsensusOutcome(out, proposals); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func TestConsensusFreeModeStress(t *testing.T) {
	// Real goroutines hammering one CAS consensus object; run with -race.
	obj := NewCASConsensus()
	n := 8
	bodies := make([]func(*shm.Proc) any, n)
	for i := range bodies {
		v := fmt.Sprintf("v%d", i)
		bodies[i] = func(p *shm.Proc) any { return obj.Propose(p, v) }
	}
	out := shm.ExecuteFree(&shm.Run{Bodies: bodies})
	var first any
	for i, o := range out.Outputs {
		if !out.Finished[i] {
			t.Fatalf("process %d unfinished", i)
		}
		if first == nil {
			first = o
		} else if o != first {
			t.Fatalf("agreement violated in free mode: %v vs %v", first, o)
		}
	}
}
