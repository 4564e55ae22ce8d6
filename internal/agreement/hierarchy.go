package agreement

import (
	"fmt"

	"distbasics/internal/shm"
)

// Herlihy's consensus hierarchy (§4.2 of the paper): the consensus number
// of an object type T is the largest n for which consensus is solvable in
// ASMn,n-1[T]. This file provides the machinery that *checks* hierarchy
// claims by exhaustive interleaving exploration: a consensus protocol for
// n processes is correct iff no schedule (including crash patterns with up
// to n-1 crashes) violates validity, agreement, or wait-free termination.

// HierarchyEntry is one row of the paper's hierarchy table.
type HierarchyEntry struct {
	// Object names the base object type.
	Object string
	// ConsensusNumber is the claimed consensus number (-1 encodes +∞).
	ConsensusNumber int
	// Factory builds a fresh consensus object for n processes, or nil if
	// the object cannot even be instantiated for that n.
	Factory func(n int) Consensus
}

// Infinity encodes consensus number +∞ in tables.
const Infinity = -1

// Hierarchy returns the paper's hierarchy table (§4.2) with executable
// constructions: read/write registers at level 1 (represented by the
// deliberately incorrect register-only protocol, used to exhibit the
// impossibility), Test&Set / Fetch&Add / queue at level 2, and
// Compare&Swap / LL-SC / sticky bit at +∞.
func Hierarchy() []HierarchyEntry {
	return []HierarchyEntry{
		{
			Object:          "read/write register",
			ConsensusNumber: 1,
			Factory:         func(n int) Consensus { return NewNaiveRegisterConsensus(n) },
		},
		{
			Object:          "Test&Set",
			ConsensusNumber: 2,
			Factory: func(n int) Consensus {
				if n == 2 {
					return NewTASConsensus2()
				}
				return NewTASConsensusN(n)
			},
		},
		{
			Object:          "Swap",
			ConsensusNumber: 2,
			Factory: func(n int) Consensus {
				if n == 2 {
					return NewSwapConsensus2()
				}
				return nil
			},
		},
		{
			Object:          "Fetch&Add",
			ConsensusNumber: 2,
			Factory: func(n int) Consensus {
				if n == 2 {
					return NewFAAConsensus2()
				}
				return nil
			},
		},
		{
			Object:          "queue",
			ConsensusNumber: 2,
			Factory: func(n int) Consensus {
				if n == 2 {
					return NewQueueConsensus2()
				}
				return nil
			},
		},
		{
			Object:          "Compare&Swap",
			ConsensusNumber: Infinity,
			Factory:         func(n int) Consensus { return NewCASConsensus() },
		},
		{
			Object:          "LL/SC",
			ConsensusNumber: Infinity,
			Factory:         func(n int) Consensus { return NewLLSCConsensus() },
		},
		{
			Object:          "sticky bit",
			ConsensusNumber: Infinity,
			Factory:         func(n int) Consensus { return NewStickyConsensus() },
		},
	}
}

// VerifyConsensusExhaustive explores every schedule of len(proposals)
// processes, process i proposing proposals[i] through a fresh object
// from factory, checking validity, agreement, and wait-free termination
// of non-crashed processes. It completes the caller's opts with what the
// consensus specification fixes — Factory, Check, and the crash budget:
// the wait-free model's n-1 when crashes is true, none otherwise — and
// leaves the search's own knobs (DPOR, MaxSteps, MaxExecutions) as given.
//
// Binary objects (sticky bit) take proposals in {0,1}.
func VerifyConsensusExhaustive(proposals []any, factory func() Consensus, crashes bool, opts shm.ExploreOpts) *shm.ExploreResult {
	n := len(proposals)
	opts.Factory = func() *shm.Run {
		obj := factory()
		bodies := make([]func(*shm.Proc) any, n)
		for i := 0; i < n; i++ {
			v := proposals[i]
			bodies[i] = func(p *shm.Proc) any { return obj.Propose(p, v) }
		}
		return &shm.Run{Bodies: bodies}
	}
	opts.Check = func(out *shm.Outcome) string { return CheckConsensusOutcome(out, proposals) }
	opts.MaxCrashes = 0
	if crashes {
		opts.MaxCrashes = n - 1
	}
	return shm.Explore(opts)
}

// CheckConsensusOutcome validates one execution outcome against the
// consensus specification: wait-free termination (every non-crashed
// process finished — a cutoff means termination failed), validity, and
// agreement among finished processes.
func CheckConsensusOutcome(out *shm.Outcome, proposals []any) string {
	if out.Cutoff {
		return "termination violated: step budget exhausted (not wait-free)"
	}
	// Linear scan rather than a set: proposal lists are tiny and this
	// runs once per explored execution, so staying allocation-free keeps
	// the explorer's leaf cost down.
	proposed := func(v any) bool {
		for _, p := range proposals {
			if p == v {
				return true
			}
		}
		return false
	}
	var decided any
	for i := range out.Outputs {
		if out.Crashed[i] {
			continue
		}
		if !out.Finished[i] {
			return fmt.Sprintf("termination violated: process %d neither finished nor crashed", i)
		}
		v := out.Outputs[i]
		if !proposed(v) {
			return fmt.Sprintf("validity violated: process %d decided %v, never proposed", i, v)
		}
		if decided == nil {
			decided = v
		} else if v != decided {
			return fmt.Sprintf("agreement violated: %v vs %v", decided, v)
		}
	}
	return ""
}
