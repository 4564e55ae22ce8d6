package shm

// Exhaustive interleaving exploration. Wait-free correctness claims (§4.2)
// are universally quantified over schedules and crash patterns; for small
// programs this explorer checks them by enumerating EVERY schedule (and,
// optionally, every crash pattern). This is how the consensus-hierarchy
// table (E4) is validated rather than asserted.
//
// This file is the API and the replay; the one search behind Explore —
// full enumeration and its partial-order reduction alike, on the calling
// goroutine — is described and implemented in dpor.go.

import "fmt"

// ExploreOpts configures an exhaustive exploration.
type ExploreOpts struct {
	// Factory builds a fresh program (fresh shared objects, fresh bodies).
	// Called once per execution the search runs, counted or pruned (the
	// first call also sizes the engine), and again from the start when the
	// search restarts, so
	// bodies must be deterministic and construction side-effect free, and
	// a DPOR search's Factory builds its objects on the calling goroutine.
	// Factory and Check are called from the goroutine that called
	// Explore, one at a time.
	Factory func() *Run
	// MaxCrashes enables crash branching: at every decision point, in
	// addition to stepping each enabled process, the explorer also tries
	// crashing each enabled process, while fewer than MaxCrashes processes
	// have crashed. In the wait-free model ASMn,n-1[∅] set it to n-1.
	MaxCrashes int
	// MaxSteps bounds each execution's total step count (0 means
	// DefaultExploreSteps). Executions that hit the bound are reported to
	// Check with Cutoff=true (e.g. livelocked obstruction-free runs).
	MaxSteps int
	// Check inspects each completed execution and returns "" if it is
	// correct, or a description of the violation (which aborts the
	// exploration). The Outcome is reused across executions: it is valid
	// only for the duration of the call.
	Check func(out *Outcome) string
	// MaxExecutions caps the number of executions explored (0 =
	// unlimited).
	MaxExecutions int
	// Deprecated: ignored; the search is serial.
	Workers int
	// DPOR enables dynamic partial-order reduction (dpor.go): the same
	// search, but a finished child is put to sleep for its later siblings,
	// so schedules that differ only in the order of adjacent independent
	// steps are explored once per equivalence class instead of once per
	// member. Off, nothing ever sleeps and every schedule is explored.
	// Violation presence is preserved — a violating execution exists iff
	// the pruned search finds one — but Executions shrinks (it counts
	// class representatives) and the reported Schedule may be a
	// permutation of the one full enumeration would report. Composes with
	// MaxExecutions.
	DPOR bool
}

// DefaultExploreSteps bounds per-execution steps during exploration.
const DefaultExploreSteps = 10_000

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	// Executions is the number of complete executions checked.
	Executions int
	// Violation describes the first violating execution ("" if none).
	Violation string
	// Schedule is the decision sequence of the violating execution.
	Schedule []Decision
	// Truncated reports that MaxExecutions stopped the search early.
	Truncated bool
}

// Explore exhaustively enumerates schedules (depth-first over the
// decision tree) and checks every complete execution. Programs of up to
// 64 processes are supported (an exhaustive search beyond that is
// intractable anyway).
func Explore(opts ExploreOpts) *ExploreResult {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultExploreSteps
	}
	// Under the reduction, when the caller set no explicit step budget the
	// first attempt treats crashes as independent of steps; if that attempt
	// finds no violation but some execution hit the (default) budget, the
	// independence was potentially unsound and the search is redone with
	// crash/step dependence on (see "Step budgets and crashes" in dpor.go).
	crashDep := opts.DPOR && opts.MaxCrashes > 0 && opts.MaxSteps > 0
	res, sawCutoff := exploreAttempt(&opts, maxSteps, crashDep)
	if opts.DPOR && !crashDep && opts.MaxCrashes > 0 && res.Violation == "" && sawCutoff {
		res, _ = exploreAttempt(&opts, maxSteps, true)
	}
	return res
}

// ReplayViolation re-executes a violating schedule and returns its outcome
// (for debugging reports). maxSteps must be the bound the schedule was
// explored under (0 meaning DefaultExploreSteps, as in ExploreOpts), or a
// cutoff schedule cannot replay. The error is non-nil when the schedule
// failed to replay — a decision targeted a process that was not enabled,
// or the schedule ran out with processes still running — which happens
// when the schedule is stale (a different program, or a non-deterministic
// factory); the returned Outcome is then the truncated run's and must not
// be trusted.
func ReplayViolation(factory func() *Run, schedule []Decision, maxSteps int) (*Outcome, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultExploreSteps
	}
	pol := &FixedPolicy{Schedule: schedule}
	out, stopped := executeInternal(factory(), pol, maxSteps)
	if pol.Skipped > 0 {
		return out, fmt.Errorf("shm: replay diverged: %d of %d scheduled decisions targeted non-enabled processes", pol.Skipped, len(schedule))
	}
	if stopped != nil {
		return out, fmt.Errorf("shm: replay incomplete: schedule exhausted with processes %v still running", stopped)
	}
	return out, nil
}
