package shm

import (
	"fmt"
	"strings"
	"testing"
)

func TestExploreFindsLostUpdate(t *testing.T) {
	// The classic non-atomic counter: two processes, one read-then-write
	// increment each. Exhaustive exploration must find the interleaving
	// where the final value is 1.
	factory := func() *Run {
		reg := NewRegister(0)
		body := func(p *Proc) any {
			v := reg.Read(p).(int)
			reg.Write(p, v+1)
			return reg.Read(p)
		}
		return &Run{Bodies: []func(*Proc) any{body, body}}
	}
	res := Explore(ExploreOpts{
		Factory: factory,
		Check: func(out *Outcome) string {
			for _, o := range out.Outputs {
				if o == 2 {
					return "" // at least someone saw 2: treat as fine
				}
			}
			return fmt.Sprintf("lost update: outputs %v", out.Outputs)
		},
	})
	if res.Violation == "" {
		t.Fatal("exhaustive exploration missed the lost-update interleaving")
	}
	if len(res.Schedule) == 0 {
		t.Fatal("violation schedule empty")
	}
	// The violating schedule must replay to the same violation.
	out, err := ReplayViolation(factory, res.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	for _, o := range out.Outputs {
		if o == 2 {
			t.Fatal("replay did not reproduce the violation")
		}
	}
}

func TestExploreAtomicCounterAlwaysCorrect(t *testing.T) {
	// FAA increments: every interleaving yields total 2.
	factory := func() *Run {
		faa := NewFetchAndAdd(0)
		body := func(p *Proc) any {
			faa.Add(p, 1)
			return faa.Read(p)
		}
		return &Run{Bodies: []func(*Proc) any{body, body}}
	}
	res := Explore(ExploreOpts{
		Factory: factory,
		Check: func(out *Outcome) string {
			// The last reader must see 2... not necessarily: reads can
			// interleave before the second Add. Check instead that SOME
			// process observed the full count.
			saw2 := false
			for _, o := range out.Outputs {
				if o == int64(2) {
					saw2 = true
				}
			}
			if !saw2 {
				return fmt.Sprintf("no process observed count 2: %v", out.Outputs)
			}
			return ""
		},
	})
	if res.Violation != "" {
		t.Fatalf("unexpected violation: %s (schedule %v)", res.Violation, res.Schedule)
	}
	if res.Executions == 0 {
		t.Fatal("no executions explored")
	}
}

func TestExploreExecutionCount(t *testing.T) {
	// Two processes with one atomic step each: exactly C(2,1)=2 total
	// orders.
	factory := func() *Run {
		reg := NewRegister(0)
		body := func(p *Proc) any { reg.Write(p, p.ID()); return nil }
		return &Run{Bodies: []func(*Proc) any{body, body}}
	}
	res := Explore(ExploreOpts{
		Factory: factory,
		Check:   func(*Outcome) string { return "" },
	})
	if res.Executions != 2 {
		t.Fatalf("explored %d executions, want 2", res.Executions)
	}
}

func TestExploreWithCrashes(t *testing.T) {
	// One process, one step, MaxCrashes=1: executions are {step} and
	// {crash} = 2 leaves.
	factory := func() *Run {
		reg := NewRegister(0)
		body := func(p *Proc) any { reg.Write(p, 1); return "ok" }
		return &Run{Bodies: []func(*Proc) any{body}}
	}
	sawCrash := false
	res := Explore(ExploreOpts{
		Factory:    factory,
		MaxCrashes: 1,
		Check: func(out *Outcome) string {
			if out.Crashed[0] {
				sawCrash = true
				if out.Finished[0] {
					return "crashed process marked finished"
				}
			}
			return ""
		},
	})
	if res.Violation != "" {
		t.Fatal(res.Violation)
	}
	if !sawCrash {
		t.Fatal("crash branch never explored")
	}
	if res.Executions < 2 {
		t.Fatalf("executions = %d, want >= 2", res.Executions)
	}
}

func TestExploreMaxExecutions(t *testing.T) {
	factory := func() *Run {
		reg := NewRegister(0)
		body := func(p *Proc) any {
			for k := 0; k < 4; k++ {
				reg.Write(p, k)
			}
			return nil
		}
		return &Run{Bodies: []func(*Proc) any{body, body, body}}
	}
	res := Explore(ExploreOpts{
		Factory:       factory,
		MaxExecutions: 10,
		Check:         func(*Outcome) string { return "" },
	})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.Executions > 10 {
		t.Fatalf("executions = %d, cap 10", res.Executions)
	}
}

func TestExploreStepBudget(t *testing.T) {
	// A spinning process under exploration: the per-execution step budget
	// must turn each branch into a cutoff leaf rather than hanging.
	factory := func() *Run {
		reg := NewRegister(0)
		spin := func(p *Proc) any {
			for {
				reg.Read(p)
			}
		}
		return &Run{Bodies: []func(*Proc) any{spin}}
	}
	cutoffs := 0
	res := Explore(ExploreOpts{
		Factory:  factory,
		MaxSteps: 20,
		Check: func(out *Outcome) string {
			if out.Cutoff {
				cutoffs++
			}
			return ""
		},
	})
	if res.Violation != "" {
		t.Fatal(res.Violation)
	}
	if cutoffs == 0 {
		t.Fatal("no cutoff leaves observed")
	}
}

// TestReplayViolationReportsDivergence pins the satellite fix: a
// schedule that no longer matches the program (stale after a code or
// seed change) must surface an error instead of silently returning a
// partial outcome.
func TestReplayViolationReportsDivergence(t *testing.T) {
	factory := func() *Run {
		r := NewRegister(0)
		return &Run{Bodies: []func(*Proc) any{
			func(p *Proc) any { r.Write(p, 1); return 1 },
			func(p *Proc) any { return r.Read(p) },
		}}
	}
	// A real schedule replays clean.
	good := []Decision{{Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 1}}
	if _, err := ReplayViolation(factory, good, 0); err != nil {
		t.Fatalf("valid schedule: unexpected error %v", err)
	}
	// Steps beyond a process's lifetime target a non-enabled process.
	over := []Decision{
		{Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 0},
		{Kind: StepProc, Pid: 1},
	}
	if _, err := ReplayViolation(factory, over, 0); err == nil {
		t.Fatal("overlong schedule: want divergence error, got nil")
	} else if !strings.Contains(err.Error(), "non-enabled") {
		t.Fatalf("overlong schedule: unexpected error %v", err)
	}
	// A schedule that ends with processes still running is incomplete.
	short := []Decision{{Kind: StepProc, Pid: 0}}
	if _, err := ReplayViolation(factory, short, 0); err == nil {
		t.Fatal("truncated schedule: want incomplete-replay error, got nil")
	} else if !strings.Contains(err.Error(), "still running") {
		t.Fatalf("truncated schedule: unexpected error %v", err)
	}
	// A violation found on a cutoff leaf under the default budget replays
	// with the same MaxSteps (0) it was searched under, full and DPOR alike.
	spinner := func() *Run {
		r := NewRegister(0)
		return &Run{Bodies: []func(*Proc) any{
			func(p *Proc) any {
				for {
					r.Read(p)
				}
			},
		}}
	}
	for _, dpor := range []bool{false, true} {
		res := Explore(ExploreOpts{Factory: spinner, DPOR: dpor, Check: func(out *Outcome) string {
			if out.Cutoff {
				return "cutoff"
			}
			return ""
		}})
		if res.Violation != "cutoff" || len(res.Schedule) != DefaultExploreSteps {
			t.Fatalf("spinner (DPOR=%v): violation %q with %d decisions", dpor, res.Violation, len(res.Schedule))
		}
		if out, err := ReplayViolation(spinner, res.Schedule, 0); err != nil || !out.Cutoff {
			t.Fatalf("spinner (DPOR=%v): cutoff schedule did not replay: %v", dpor, err)
		}
	}
}
