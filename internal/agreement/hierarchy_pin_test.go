package agreement

// Pins the E4 consensus-hierarchy exploration workloads: for every
// hierarchy row the explorer must report the execution counts,
// violations and violation schedules the seed-era explorer gave,
// recorded while it ran beside the rebuilt one and agreed.

import (
	"reflect"
	"testing"

	"distbasics/internal/shm"
)

// e4Opts is the exact exploration each hierarchy row runs in E4 (two
// processes proposing 0 and 1, up to one crash).
func e4Opts(factory func(n int) Consensus) shm.ExploreOpts {
	return shm.ExploreOpts{
		Factory: func() *shm.Run {
			c := factory(2)
			return &shm.Run{Bodies: []func(*shm.Proc) any{
				func(p *shm.Proc) any { return c.Propose(p, 0) },
				func(p *shm.Proc) any { return c.Propose(p, 1) },
			}}
		},
		MaxCrashes: 1,
		Check: func(out *shm.Outcome) string {
			return CheckConsensusOutcome(out, []any{0, 1})
		},
	}
}

// goldenE4Executions pins each row's leaf count (or, for the violating
// register row, the leaf at which the violation is found).
var goldenE4Executions = map[string]int{
	"read/write register": 20,
	"Test&Set":            30,
	"Swap":                30,
	"Fetch&Add":           30,
	"queue":               30,
	"Compare&Swap":        24,
	"LL/SC":               26,
	"sticky bit":          6,
}

// goldenRegisterSchedule is the register row's violating schedule (the
// first one in depth-first order).
var goldenRegisterSchedule = []shm.Decision{
	{Kind: shm.StepProc, Pid: 1}, {Kind: shm.StepProc, Pid: 1},
	{Kind: shm.StepProc, Pid: 0}, {Kind: shm.StepProc, Pid: 0},
	{Kind: shm.StepProc, Pid: 1},
}

func TestHierarchyExplorationPinnedAcrossEngines(t *testing.T) {
	for _, e := range Hierarchy() {
		e := e
		if e.Factory == nil {
			continue
		}
		t.Run(e.Object, func(t *testing.T) {
			opts := e4Opts(e.Factory)
			got := shm.Explore(opts)

			wantViolation := e.ConsensusNumber == 1
			var wantSchedule []shm.Decision
			if wantViolation {
				wantSchedule = goldenRegisterSchedule
			}
			if want := goldenE4Executions[e.Object]; got.Executions != want {
				t.Errorf("executions = %d, golden %d", got.Executions, want)
			}
			if (got.Violation != "") != wantViolation {
				t.Errorf("violation %q, wantViolation %v", got.Violation, wantViolation)
			}
			if !reflect.DeepEqual(got.Schedule, wantSchedule) {
				t.Errorf("schedule %v, golden %v", got.Schedule, wantSchedule)
			}
			if wantViolation {
				// The violating schedule must replay to the same violation.
				out, err := shm.ReplayViolation(opts.Factory, got.Schedule, opts.MaxSteps)
				if err != nil {
					t.Errorf("pinned violation schedule failed to replay: %v", err)
				}
				if msg := CheckConsensusOutcome(out, []any{0, 1}); msg == "" {
					t.Error("pinned violation schedule no longer reproduces a violation")
				}
			}
		})
	}
}

func TestMultivaluedExplorationPinnedAcrossEngines(t *testing.T) {
	mk := func() shm.ExploreOpts {
		return shm.ExploreOpts{
			Factory: func() *shm.Run {
				c := NewMVConsensus(2, func() Consensus { return NewStickyConsensus() })
				return &shm.Run{Bodies: []func(*shm.Proc) any{
					func(p *shm.Proc) any { return c.Propose(p, "apple") },
					func(p *shm.Proc) any { return c.Propose(p, "pear") },
				}}
			},
			MaxCrashes: 1,
			Check: func(out *shm.Outcome) string {
				return CheckConsensusOutcome(out, []any{"apple", "pear"})
			},
		}
	}
	// 1103 is the seed explorer's count, recorded before it was deleted.
	if got := shm.Explore(mk()); got.Executions != 1103 || got.Violation != "" {
		t.Fatalf("multivalued exploration: %d/%q, want 1103 executions and no violation",
			got.Executions, got.Violation)
	}
}

// TestHierarchyThreeProcessConsensus is the scale dividend of the rebuilt
// explorer: infinite-consensus-number objects verified exhaustively at
// n=3 with up to two crashes — a tree far beyond what the seed explorer
// covered in E4.
func TestHierarchyThreeProcessConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=3 exploration")
	}
	for _, e := range Hierarchy() {
		e := e
		if e.ConsensusNumber != Infinity || e.Factory == nil {
			continue
		}
		t.Run(e.Object, func(t *testing.T) {
			res := shm.Explore(shm.ExploreOpts{
				Factory: func() *shm.Run {
					c := e.Factory(3)
					bodies := make([]func(*shm.Proc) any, 3)
					for i := 0; i < 3; i++ {
						i := i
						bodies[i] = func(p *shm.Proc) any { return c.Propose(p, i%2) }
					}
					return &shm.Run{Bodies: bodies}
				},
				MaxCrashes: 2,
				Check: func(out *shm.Outcome) string {
					return CheckConsensusOutcome(out, []any{0, 1, 0})
				},
			})
			if res.Violation != "" {
				t.Fatalf("consensus violated at n=3: %s (schedule %v)", res.Violation, res.Schedule)
			}
			if res.Executions == 0 {
				t.Fatal("no executions explored")
			}
			t.Logf("%s: %d executions, no violation", e.Object, res.Executions)
		})
	}
}
