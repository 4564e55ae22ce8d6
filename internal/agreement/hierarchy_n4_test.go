package agreement

import (
	"testing"

	"distbasics/internal/shm"
)

// Exhaustive n=4 consensus-hierarchy entries, reachable only under DPOR
// (internal/shm's sleep-set reduction): the full enumeration for CAS at
// n=4 with 3 crashes costs 58920 executions where the reduced search
// visits 3472 — and the reduction is fenced right here by running both
// and requiring violation-presence agreement. Two rows are pinned:
//
//   - Test&Set via TASConsensusN, the natural-but-incorrect n>=3
//     generalization (consensus number 2): the search must FIND the
//     violation, and its schedule must replay to a checkable violation.
//   - Compare&Swap (consensus number ∞): the search must come up clean
//     over every schedule with up to n-1 crashes.
//
// The absolute DPOR execution counts are pinned as goldens so a
// reduction regression (pruning too much or too little) is loud even
// when both searches stay self-consistent.

// n4Opts is the E4-shape workload lifted to four proposers.
func n4Opts(factory func(n int) Consensus, crashes int) shm.ExploreOpts {
	return shm.ExploreOpts{
		Factory: func() *shm.Run {
			c := factory(4)
			return &shm.Run{Bodies: []func(*shm.Proc) any{
				func(p *shm.Proc) any { return c.Propose(p, 0) },
				func(p *shm.Proc) any { return c.Propose(p, 1) },
				func(p *shm.Proc) any { return c.Propose(p, 2) },
				func(p *shm.Proc) any { return c.Propose(p, 3) },
			}}
		},
		MaxCrashes: crashes,
		Check: func(out *shm.Outcome) string {
			return CheckConsensusOutcome(out, []any{0, 1, 2, 3})
		},
	}
}

func TestHierarchyN4UnderDPOR(t *testing.T) {
	cases := []struct {
		name          string
		factory       func(n int) Consensus
		wantViolation bool
		goldenDPOR    int
	}{
		{"Test&Set", func(n int) Consensus { return NewTASConsensusN(n) }, true, 129},
		{"Compare&Swap", func(n int) Consensus { return NewCASConsensus() }, false, 3472},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := n4Opts(tc.factory, 3)
			opts.DPOR = true
			dpor := shm.Explore(opts)
			if dpor.Executions != tc.goldenDPOR {
				t.Errorf("DPOR executions = %d, golden %d", dpor.Executions, tc.goldenDPOR)
			}
			if (dpor.Violation != "") != tc.wantViolation {
				t.Errorf("violation %q, wantViolation %v", dpor.Violation, tc.wantViolation)
			}
			if tc.wantViolation {
				out, err := shm.ReplayViolation(opts.Factory, dpor.Schedule, opts.MaxSteps)
				if err != nil {
					t.Fatalf("violation schedule failed to replay: %v", err)
				}
				if msg := CheckConsensusOutcome(out, []any{0, 1, 2, 3}); msg == "" {
					t.Error("violation schedule replayed clean")
				}
			} else {
				// The clean row is where the reduction claim is earned:
				// the full enumeration must agree there is no violation,
				// over strictly more executions.
				fullOpts := n4Opts(tc.factory, 3)
				full := shm.Explore(fullOpts)
				if full.Violation != "" {
					t.Errorf("full enumeration found a violation DPOR missed: %q", full.Violation)
				}
				if full.Executions <= dpor.Executions {
					t.Errorf("no reduction: full %d vs DPOR %d", full.Executions, dpor.Executions)
				}
				t.Logf("n=4 %s: full %d executions, DPOR %d (%.1fx)",
					tc.name, full.Executions, dpor.Executions,
					float64(full.Executions)/float64(dpor.Executions))
			}
		})
	}
}
