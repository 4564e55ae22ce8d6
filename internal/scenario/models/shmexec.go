package models

import (
	"fmt"
	"math/rand"

	"distbasics/internal/scenario"
	"distbasics/internal/shm"
)

// ShmExec runs seeded racy programs on the shared-memory engine
// (shm.Execute) across crashes, cutoffs and solo schedules. Its oracle
// shares no code with the engine: the Outcome's books balance — Steps
// is the sum of StepsBy, no process both finished and crashed, a crashed
// process has no output, Cutoff and Stopped are not both set, and with
// neither set every process finished or crashed. The outcomes the
// retired seed-era channel engine agreed on are frozen in
// testdata/digests.txt. The scenario's Ops carry one process body
// descriptor each (Key = body shape, Val = repetitions), so the shrinker
// can peel processes off a failure.
type ShmExec struct{}

// Name implements scenario.Model.
func (*ShmExec) Name() string { return "shmexec" }

// shmBodyKinds is the number of body shapes in buildShmRun.
const shmBodyKinds = 5

// Generate implements scenario.Model.
func (*ShmExec) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 1 + rng.Intn(4)
	sc := &scenario.Scenario{Model: "shmexec", Seed: seed, Procs: n}
	for i := 0; i < n; i++ {
		sc.Ops = append(sc.Ops, scenario.Op{
			Proc: i, Kind: scenario.OpBody,
			Key: rng.Intn(shmBodyKinds), Val: 1 + rng.Intn(4),
		})
	}
	return sc
}

// buildShmRun materializes the scenario's body descriptors into a fresh
// program over fresh shared objects: racy read-modify-write chains,
// value-dependent branching, bounded spins, atomless bodies, and flag
// setters — schedule-sensitive in outputs, step counts, and
// termination.
func buildShmRun(sc *scenario.Scenario) *shm.Run {
	regs := shm.NewRegisterArray(3, 0)
	faa := shm.NewFetchAndAdd(0)
	tas := shm.NewTestAndSet()
	bodies := make([]func(*shm.Proc) any, len(sc.Ops))
	for b, op := range sc.Ops {
		reps := op.Val
		i := op.Proc
		switch op.Key % shmBodyKinds {
		case 0: // racy read-then-write chain
			bodies[b] = func(p *shm.Proc) any {
				tot := 0
				for k := 0; k < reps; k++ {
					v := regs.Reg(k % 3).Read(p).(int)
					regs.Reg((k+1)%3).Write(p, v+1)
					tot += v
				}
				return tot
			}
		case 1: // control flow depends on observed shared state
			bodies[b] = func(p *shm.Proc) any {
				if !tas.TestAndSet(p) {
					faa.Add(p, 2)
					return "winner"
				}
				v := faa.Read(p)
				if v%2 == 0 {
					regs.Reg(0).Write(p, int(v))
				} else {
					p.Yield()
					regs.Reg(1).Write(p, int(v))
				}
				return v
			}
		case 2: // bounded spin on a flag (long runs, cutoff fodder)
			bodies[b] = func(p *shm.Proc) any {
				for j := 0; j < 30; j++ {
					if regs.Reg(2).Read(p).(int) != 0 {
						return j
					}
				}
				return -1
			}
		case 3: // no atomic steps at all
			bodies[b] = func(p *shm.Proc) any { return i * 100 }
		default: // flag setter
			bodies[b] = func(p *shm.Proc) any {
				faa.Add(p, 1)
				regs.Reg(2).Write(p, 1)
				return nil
			}
		}
	}
	return &shm.Run{Bodies: bodies}
}

// shmPolicyFor builds the policy and the step budget for one scenario.
func shmPolicyFor(sc *scenario.Scenario) (shm.Policy, int) {
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	polSeed := cfg.Int63()
	budgets := []int{0, 7, 25, 200}
	maxSteps := budgets[cfg.Intn(len(budgets))]
	switch cfg.Intn(4) {
	case 0:
		return &shm.RoundRobinPolicy{}, maxSteps
	case 1:
		return &shm.RandomPolicy{Rng: rand.New(rand.NewSource(polSeed)), CrashProb: 0.15, MaxCrashes: 2}, maxSteps
	case 2:
		return shm.NewRandomPolicy(polSeed), maxSteps
	default:
		return &shm.SoloPolicy{Rng: rand.New(rand.NewSource(polSeed)), Prefix: 5, Solo: 0}, maxSteps
	}
}

// Run implements scenario.Model.
func (*ShmExec) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	if len(sc.Ops) == 0 {
		res.Tracef("degenerate: no bodies")
		return res
	}
	policy, maxSteps := shmPolicyFor(sc)
	got := shm.Execute(buildShmRun(sc), policy, maxSteps)
	res.Tracef("bodies=%d maxSteps=%d", len(sc.Ops), maxSteps)
	res.Tracef("outcome: %s", outcomeString(got))
	if msg := unbalancedBooks(got); msg != "" {
		res.Failf("%s", msg)
	}
	res.Completed = got.Steps
	return res
}

// unbalancedBooks describes the first way o's accounting is
// inconsistent ("" if it balances).
func unbalancedBooks(o *shm.Outcome) string {
	sum := 0
	for _, s := range o.StepsBy {
		sum += s
	}
	if sum != o.Steps {
		return fmt.Sprintf("Steps = %d but StepsBy sums to %d", o.Steps, sum)
	}
	if o.Cutoff && o.Stopped {
		return "Cutoff and Stopped both set"
	}
	for i := range o.Finished {
		switch {
		case o.Finished[i] && o.Crashed[i]:
			return fmt.Sprintf("process %d both finished and crashed", i)
		case o.Crashed[i] && o.Outputs[i] != nil:
			return fmt.Sprintf("crashed process %d has output %v", i, o.Outputs[i])
		case !o.Cutoff && !o.Stopped && !o.Finished[i] && !o.Crashed[i]:
			return fmt.Sprintf("process %d neither finished nor crashed in a complete run", i)
		}
	}
	return ""
}

// outcomeString renders an Outcome deterministically.
func outcomeString(o *shm.Outcome) string {
	return fmt.Sprintf("outputs=%v finished=%v crashed=%v steps=%d stepsBy=%v cutoff=%v stopped=%v",
		o.Outputs, o.Finished, o.Crashed, o.Steps, o.StepsBy, o.Cutoff, o.Stopped)
}
