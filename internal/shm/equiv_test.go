package shm

// Frozen answers of the seed-era channel engine and its DFS explorer,
// recorded while they ran beside the rebuilt engine and explorer and
// agreed with them: StopRun outcomes and the enabled sets they report,
// a tree of cutoff leaves, and a replayed violation. The seeded random
// sweeps that compared the two engines are frozen in the shmexec and
// shmexplore models' digests (internal/scenario/models/testdata).

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// stopRunProgramFactory builds a small racy program for the StopRun pin
// (the harness's shmexec model owns the full random program family).
func stopRunProgramFactory(seed int64) func() *Run {
	return func() *Run {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		regs := NewRegisterArray(3, 0)
		bodies := make([]func(*Proc) any, n)
		for i := range bodies {
			reps := 1 + rng.Intn(4)
			i := i
			if i%2 == 0 {
				bodies[i] = func(p *Proc) any {
					tot := 0
					for k := 0; k < reps; k++ {
						v := regs.Reg(k % 3).Read(p).(int)
						regs.Reg((k+1)%3).Write(p, v+1)
						tot += v
					}
					return tot
				}
			} else {
				bodies[i] = func(p *Proc) any { return i * 100 }
			}
		}
		return &Run{Bodies: bodies}
	}
}

// stopRunDigest is the sha256 over the 40 seeds' "seed outcome enabled"
// lines, as the seed engine reported them.
const stopRunDigest = "2bda27e379de3c3da9b83c76a5f0f0e1324b1566627c224542da23de036bbf86"

func TestExecuteStopRunMatchesLegacy(t *testing.T) {
	// A FixedPolicy whose schedule runs out mid-execution must stop the
	// run, reporting Stopped (not Cutoff) and the processes still enabled.
	sum := sha256.New()
	for seed := int64(0); seed < 40; seed++ {
		factory := stopRunProgramFactory(seed)
		sched := []Decision{{Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 0}}
		got, enabled := executeInternal(factory(), &FixedPolicy{Schedule: sched}, 0)
		if got.Stopped && got.Cutoff {
			t.Fatalf("seed %d: Stopped and Cutoff both set", seed)
		}
		fmt.Fprintf(sum, "%d %+v %v\n", seed, *got, enabled)
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != stopRunDigest {
		t.Fatalf("stop-run outcomes digest %s, want %s", got, stopRunDigest)
	}
}

func TestExploreCutoffLeavesMatchLegacy(t *testing.T) {
	// Unbounded spinners force every branch to the per-execution step
	// budget: cutoff leaves must count and report as the seed DFS did.
	factory := func() *Run {
		reg := NewRegister(0)
		spin := func(p *Proc) any {
			for {
				if reg.Read(p).(int) > 1 {
					return nil
				}
			}
		}
		setter := func(p *Proc) any { reg.Write(p, 1); return "set" }
		return &Run{Bodies: []func(*Proc) any{spin, setter}}
	}
	cutoffs := 0
	got := Explore(ExploreOpts{
		Factory:    factory,
		MaxCrashes: 1,
		MaxSteps:   12,
		Check: func(out *Outcome) string {
			if out.Cutoff {
				cutoffs++
			}
			if out.Stopped {
				return "explorer leaked a StopRun outcome"
			}
			return ""
		},
	})
	if want := (ExploreResult{Executions: 103}); !reflect.DeepEqual(*got, want) {
		t.Fatalf("cutoff tree: %+v, want %+v", *got, want)
	}
	if cutoffs != 25 {
		t.Fatalf("%d cutoff leaves, want 25", cutoffs)
	}
}

func TestReplayViolationMatchesLegacyReplay(t *testing.T) {
	factory := func() *Run {
		reg := NewRegister(0)
		body := func(p *Proc) any {
			v := reg.Read(p).(int)
			reg.Write(p, v+1)
			return reg.Read(p)
		}
		return &Run{Bodies: []func(*Proc) any{body, body}}
	}
	check := func(out *Outcome) string {
		for _, o := range out.Outputs {
			if o == 2 {
				return ""
			}
		}
		return "lost update"
	}
	res := Explore(ExploreOpts{Factory: factory, Check: check})
	step := func(pid int) Decision { return Decision{Kind: StepProc, Pid: pid} }
	if want := []Decision{step(0), step(1), step(0), step(0), step(1), step(1)}; !reflect.DeepEqual(res.Schedule, want) {
		t.Fatalf("violating schedule %v, want %v", res.Schedule, want)
	}
	got, err := ReplayViolation(factory, res.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	// The outcome the seed engine gave for this schedule.
	want := &Outcome{
		Outputs:  []any{1, 1},
		Finished: []bool{true, true},
		Crashed:  []bool{false, false},
		Steps:    6,
		StepsBy:  []int{3, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed outcome\ngot:  %+v\nwant: %+v", got, want)
	}
}
