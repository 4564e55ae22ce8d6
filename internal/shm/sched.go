// Package shm implements the asynchronous shared-memory models of §4 of
// the paper, ASMn,t[T]: n asynchronous crash-prone processes communicating
// through atomic objects (read/write registers and the hardware primitives
// of Herlihy's hierarchy).
//
// Atomicity and asynchrony are realized by routing every object operation
// through a scheduler. Three schedulers are provided:
//
//   - Free: real goroutines; the Go runtime interleaves operations (each
//     made atomic by a global mutex). Used for race-detector stress tests.
//   - Controlled: a deterministic step-by-step scheduler driven by a
//     Policy (seeded random, round-robin, fixed schedule, adversarial),
//     with crash injection. Wait-freedom and obstruction-freedom are
//     statements quantified over schedules, and this scheduler is what
//     lets tests quantify.
//   - the exhaustive Explorer (explore.go), which enumerates every
//     interleaving of a small program — how the consensus-hierarchy claims
//     of §4.2 are checked rather than merely asserted.
//
// # Engine architecture
//
// Controlled execution runs on a reusable coroutine arena (engine.go):
// one persistent coroutine per process, with a scheduler handshake made
// of plain per-process slot fields plus a single coroutine switch — no
// channels, no per-step allocation, no goroutine spawns per execution.
// The enabled set is a bitset with a lazily rebuilt sorted-slice view,
// and step grants carry a quota so runs of consecutive steps to the same
// process cost one switch total. The exhaustive explorer (explore.go,
// dpor.go) executes once per complete schedule — recording the enabled
// set at every decision point, so sibling branches are enumerated
// without re-executing interior tree nodes — and reuses one arena across
// the millions of executions of a search. It is one
// sleep-set search: ExploreOpts.DPOR turns on dynamic partial-order
// reduction — steps that touch disjoint objects commute, so sleep sets
// prune schedules that differ only by reordering independent steps, one
// execution per Mazurkiewicz trace class, with violation presence
// preserved (the E4 hierarchy rows at n=4 drop from 58920 executions to
// 3472) — and without it nothing is put to sleep. The seed-era
// goroutine-per-process engine and its DFS are deleted: the answers both
// engines agreed on are frozen in the shmexec and shmexplore models'
// digests (internal/scenario/models/testdata/digests.txt) and in this
// package's pinned tests.
package shm

import (
	"math/rand"
	"sync"
)

// Proc is a process's handle onto the shared-memory system: object
// operations take a *Proc and become atomic steps of that process.
//
// A Proc carries two identities: the algorithm-visible id (returned by ID
// and used by algorithms to index per-process registers) and the scheduler
// identity (which process the step is charged to). They coincide except
// for handles produced by DeriveProc.
//
// The scheduler backend is a concrete field rather than a function value
// so that the op closures built by object operations provably do not
// escape — an atomic step allocates nothing.
type Proc struct {
	id  int // algorithm-visible identity
	sid int // scheduler identity

	eng *engine    // controlled coroutine engine (Execute, Explore)
	fre *freeSched // ExecuteFree's mutex scheduler
	// both nil: direct mode — ops execute immediately (NewDirectProc)
}

// ID returns the algorithm-visible process identity (0-based).
func (p *Proc) ID() int { return p.id }

// DeriveProc returns a handle that schedules as p but reports the given
// algorithm identity — used when an algorithm re-indexes processes, such
// as group-local ids inside a partition.
func DeriveProc(p *Proc, id int) *Proc {
	q := *p
	q.id = id
	return &q
}

// NewDirectProc returns a Proc whose atomic steps execute immediately with
// no scheduler, for single-threaded unit tests of object semantics.
func NewDirectProc(id int) *Proc {
	return &Proc{id: id, sid: id}
}

// atomic performs op as one atomic step of this process. It may never
// return: if the scheduler crashes the process, atomic unwinds the
// process via a panic that the scheduler recovers. Bodies must let that
// panic pass (do not recover values of unexported types).
//
// Steps issued through atomic carry no object identity, so a DPOR
// exploration (ExploreOpts.DPOR) must treat them as dependent with every
// other step. The built-in objects issue their steps through access
// instead, which is what makes the dependence relation precise.
func (p *Proc) atomic(op func()) {
	switch {
	case p.eng != nil:
		p.eng.stepAcc(p.sid, 0, true, op)
	case p.fre != nil:
		p.fre.step(p.sid, op)
	default:
		op()
	}
}

// access performs op as one atomic step of this process, declaring which
// shared object the step touches (a creation-order id from newObjID) and
// whether it may write it. The declaration is what the DPOR explorer's
// dependence relation is computed from; every non-exploring scheduler
// treats access exactly like atomic.
func (p *Proc) access(oid uint64, write bool, op func()) {
	if p.eng != nil {
		p.eng.stepAcc(p.sid, oid, write, op)
		return
	}
	p.atomic(op)
}

// Yield consumes a scheduling step without touching shared memory. Spin
// loops call it so a controlled scheduler can preempt (and charge) them.
// A Yield step touches no object, so DPOR treats it as independent of
// every other process's steps.
func (p *Proc) Yield() { p.access(oidNone, false, func() {}) }

// Atomic executes op as one atomic step of p. It is the extension point
// for defining additional atomic base objects outside this package (e.g.
// the k-simultaneous consensus object of package agreement): the entire op
// body is linearized as a single step, exactly like the built-in objects'
// operations. Op must not itself invoke object operations. Steps issued
// through Atomic carry no object identity: a DPOR exploration soundly
// treats them as conflicting with every other step.
func Atomic(p *Proc, op func()) { p.atomic(op) }

// crashSignal unwinds a crashed process's body.
type crashSignal struct{}

// Outcome reports a completed execution.
type Outcome struct {
	// Outputs[i] is the value returned by process i's body (nil if it
	// crashed or was cut off).
	Outputs []any
	// Finished[i] reports whether process i's body ran to completion.
	Finished []bool
	// Crashed[i] reports whether process i was crashed by the scheduler
	// (including processes unwound when a run was cut off or stopped).
	Crashed []bool
	// Steps is the total number of atomic steps granted.
	Steps int
	// Cutoff reports that the run stopped because the step budget was
	// exhausted while some process was still running (e.g. a livelocked
	// obstruction-free algorithm under a hostile schedule).
	Cutoff bool
	// Stopped reports that the run was aborted by a StopRun decision
	// while some process was still running (e.g. a FixedPolicy whose
	// schedule ran out). Distinct from Cutoff, which is budget-only.
	Stopped bool
	// StepsBy[i] counts atomic steps taken by process i.
	StepsBy []int
}

// reset clears the outcome in place for reuse by a new execution. Every
// Outcome field must be covered here: the explorer reuses one outcome
// across all executions of a search.
func (out *Outcome) reset() {
	out.Steps = 0
	out.Cutoff = false
	out.Stopped = false
	for i := range out.Outputs {
		out.Outputs[i] = nil
		out.Finished[i] = false
		out.Crashed[i] = false
		out.StepsBy[i] = 0
	}
}

// DecisionKind discriminates scheduler decisions.
type DecisionKind int

// Decision kinds. Enums start at 1 so the zero Decision is invalid.
const (
	// StepProc grants one atomic step to Pid.
	StepProc DecisionKind = iota + 1
	// CrashProc crashes Pid (it takes no further steps).
	CrashProc
	// StopRun aborts the execution (used by FixedPolicy when its
	// schedule is exhausted).
	StopRun
)

// Decision is one scheduling choice.
type Decision struct {
	Kind DecisionKind
	Pid  int
}

// Policy chooses the next decision given the ids of processes that are
// enabled (alive and waiting to perform an atomic step). enabled is
// sorted and non-empty; it must be neither modified nor retained across
// calls. step is the number of steps granted so far.
type Policy interface {
	Next(enabled []int, step int) Decision
}

// RandomPolicy schedules uniformly among enabled processes and, with
// probability CrashProb per decision, crashes a random enabled process
// while fewer than MaxCrashes processes have crashed.
type RandomPolicy struct {
	Rng        *rand.Rand
	CrashProb  float64
	MaxCrashes int

	crashes int
}

// NewRandomPolicy returns a crash-free uniform random policy.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{Rng: rand.New(rand.NewSource(seed))}
}

// Next implements Policy.
func (p *RandomPolicy) Next(enabled []int, _ int) Decision {
	pid := enabled[p.Rng.Intn(len(enabled))]
	if p.crashes < p.MaxCrashes && p.Rng.Float64() < p.CrashProb {
		p.crashes++
		return Decision{Kind: CrashProc, Pid: pid}
	}
	return Decision{Kind: StepProc, Pid: pid}
}

// RoundRobinPolicy cycles through enabled processes in id order.
type RoundRobinPolicy struct{ last int }

// Next implements Policy.
func (p *RoundRobinPolicy) Next(enabled []int, _ int) Decision {
	for _, pid := range enabled {
		if pid > p.last {
			p.last = pid
			return Decision{Kind: StepProc, Pid: pid}
		}
	}
	p.last = enabled[0]
	return Decision{Kind: StepProc, Pid: enabled[0]}
}

// SoloPolicy runs a random schedule for Prefix steps, then schedules only
// process Solo — the "executes in isolation for a long enough period"
// premise of obstruction-freedom (§4.3). Once solo, every other process is
// held (not crashed).
type SoloPolicy struct {
	Rng    *rand.Rand
	Prefix int
	Solo   int
}

// Next implements Policy.
func (p *SoloPolicy) Next(enabled []int, step int) Decision {
	if step < p.Prefix {
		return Decision{Kind: StepProc, Pid: enabled[p.Rng.Intn(len(enabled))]}
	}
	for _, pid := range enabled {
		if pid == p.Solo {
			return Decision{Kind: StepProc, Pid: pid}
		}
	}
	// Solo process finished; let the rest run (round-robin) so the run can
	// end.
	return Decision{Kind: StepProc, Pid: enabled[0]}
}

// FixedPolicy replays an explicit decision sequence, then issues StopRun.
type FixedPolicy struct {
	Schedule []Decision
	// Skipped counts scheduled step decisions that targeted a process that
	// was not enabled (already finished or crashed) and were dropped. A
	// schedule recorded from an execution of the same deterministic program
	// replays with Skipped == 0; anything else means the schedule is stale.
	Skipped int
	next    int
}

// Next implements Policy.
func (p *FixedPolicy) Next(enabled []int, _ int) Decision {
	for p.next < len(p.Schedule) {
		d := p.Schedule[p.next]
		p.next++
		if d.Kind == CrashProc {
			return d
		}
		for _, pid := range enabled {
			if pid == d.Pid {
				return d
			}
		}
		// The scheduled process is not enabled (already finished or
		// crashed); skip the entry.
		p.Skipped++
	}
	return Decision{Kind: StopRun}
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(enabled []int, step int) Decision

// Next implements Policy.
func (f PolicyFunc) Next(enabled []int, step int) Decision { return f(enabled, step) }

// Run describes a shared-memory program: one body per process. Bodies
// access shared objects (created by the caller and captured by the
// closures) exclusively through *Proc-taking operations.
type Run struct {
	Bodies []func(p *Proc) any
}

// Execute runs the program under a controlled scheduler: exactly one
// process executes at a time, chosen by policy; each atomic step runs to
// completion before the next choice. maxSteps bounds the total number of
// steps (0 means DefaultMaxSteps). Execute is deterministic for a
// deterministic policy and deterministic bodies.
func Execute(run *Run, policy Policy, maxSteps int) *Outcome {
	out, _ := executeInternal(run, policy, maxSteps)
	return out
}

// DefaultMaxSteps bounds controlled executions that pass maxSteps == 0.
const DefaultMaxSteps = 1 << 20

// executeInternal also returns the ids of processes that were enabled when
// a StopRun decision cut the run.
func executeInternal(run *Run, policy Policy, maxSteps int) (*Outcome, []int) {
	n := len(run.Bodies)
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	out := newOutcome(n)
	if n == 0 {
		return out, nil
	}
	var stopped []int
	withEngine(n, func(e *engine) {
		stopped = e.run(run.Bodies, policy, maxSteps, out)
	})
	return out, stopped
}

// freeSched is ExecuteFree's backend: a global mutex makes each op atomic
// while the Go runtime chooses the interleaving.
type freeSched struct {
	mu      sync.Mutex
	stepsBy []int64
}

func (f *freeSched) step(sid int, op func()) {
	f.mu.Lock()
	f.stepsBy[sid]++
	op()
	f.mu.Unlock()
}

// ExecuteFree runs the program with one real goroutine per process; object
// atomicity comes from a global mutex, and interleaving is whatever the Go
// scheduler produces. Use under -race for stress testing. Crash injection
// is not available in free mode.
func ExecuteFree(run *Run) *Outcome {
	n := len(run.Bodies)
	out := newOutcome(n)
	var wg sync.WaitGroup
	f := &freeSched{stepsBy: make([]int64, n)}
	for i := range run.Bodies {
		wg.Add(1)
		pid := i
		body := run.Bodies[i]
		p := &Proc{id: pid, sid: pid, fre: f}
		go func() {
			defer wg.Done()
			out.Outputs[pid] = body(p)
			out.Finished[pid] = true
		}()
	}
	wg.Wait()
	for i, s := range f.stepsBy {
		out.StepsBy[i] = int(s)
		out.Steps += int(s)
	}
	return out
}
