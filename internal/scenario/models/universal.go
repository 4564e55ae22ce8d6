package models

import (
	"fmt"
	"sort"

	"distbasics/internal/check"
	"distbasics/internal/scenario"
	"distbasics/internal/shm"
	"distbasics/internal/universal"
)

// Universal is the schedule-fuzz linearizability model for the
// shared-memory universal construction: n processes drive a constructed
// KV object through the scenario's put/get lists under a seeded random
// schedule, with crashes injected at the scenario's fault steps, and
// the recorded multi-key history — beyond the checker's per-partition
// cap as a whole — is checked per key via KVSpec's Partitioner and
// replay-validated through the shared witness validator.
type Universal struct{}

const (
	univProcs = 4
	univPer   = 60
	univKeys  = 8
)

// Name implements scenario.Model.
func (*Universal) Name() string { return "universal" }

// Generate implements scenario.Model.
func (*Universal) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "universal", Seed: seed, Procs: univProcs}
	for i := 0; i < univProcs; i++ {
		for j := 0; j < univPer; j++ {
			key := (i*univPer + j) % univKeys
			if (i+j)%3 == 0 {
				sc.Ops = append(sc.Ops, scenario.Op{Proc: i, Kind: scenario.OpGet, Key: key})
			} else {
				sc.Ops = append(sc.Ops, scenario.Op{Proc: i, Kind: scenario.OpPut, Key: key, Val: i*1000 + j})
			}
		}
	}
	// Odd seeds crash up to n-1 processes at random schedule steps.
	if seed%2 == 1 {
		for c := 0; c < 1+rng.Intn(univProcs-1); c++ {
			sc.Faults = append(sc.Faults, scenario.Fault{
				Kind: scenario.FaultCrash,
				Proc: rng.Intn(univProcs),
				From: rng.Int63n(30_000),
			})
		}
	}
	return sc
}

// crashingPolicy schedules uniformly at random from a scenario
// sub-stream and crashes each fault's victim at its step index (skipped
// if the victim is no longer enabled). From is a decision-step count,
// which makes crash faults exact, replayable, and shrinkable.
type crashingPolicy struct {
	rng     *scenario.Rand
	crashes []scenario.Fault
}

// Next implements shm.Policy.
func (p *crashingPolicy) Next(enabled []int, step int) shm.Decision {
	for len(p.crashes) > 0 && int64(step) >= p.crashes[0].From {
		victim := p.crashes[0].Proc
		p.crashes = p.crashes[1:]
		for _, e := range enabled {
			if e == victim {
				return shm.Decision{Kind: shm.CrashProc, Pid: victim}
			}
		}
	}
	return shm.Decision{Kind: shm.StepProc, Pid: enabled[p.rng.Intn(len(enabled))]}
}

// Run implements scenario.Model.
func (*Universal) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	n := sc.Procs
	if n < 1 {
		res.Tracef("degenerate: no processes")
		return res
	}
	u := universal.NewUniversal(n, universal.KVSpec{})
	rec := check.NewRecorder()
	bodies := make([]func(*shm.Proc) any, n)
	for i := 0; i < n; i++ {
		chain := sc.OpsFor(i)
		bodies[i] = func(p *shm.Proc) any {
			h := u.Handle(p)
			for _, sop := range chain {
				key := fmt.Sprintf("k%d", sop.Key)
				var op any
				switch sop.Kind {
				case scenario.OpGet:
					op = universal.GetOp{K: key}
				case scenario.OpPut:
					op = universal.PutOp{K: key, V: sop.Val}
				default:
					continue
				}
				inv := rec.Call(p.ID(), op)
				inv.Return(h.Invoke(op))
			}
			return nil
		}
	}
	crashes := append([]scenario.Fault(nil), sc.Faults...)
	sort.SliceStable(crashes, func(i, j int) bool { return crashes[i].From < crashes[j].From })
	pol := &crashingPolicy{rng: scenario.NewRand(sc.Seed).Derive(100), crashes: crashes}
	out := shm.Execute(&shm.Run{Bodies: bodies}, pol, 50_000_000)

	h := rec.History()
	traceHistory(res, h)
	res.Tracef("steps=%d finished=%v crashed=%v", out.Steps, out.Finished, out.Crashed)
	return linearize(res, universal.KVSpec{}, h,
		func(lin check.Result) string {
			return fmt.Sprintf("%d-op KV history (%d explored over %d partitions)", len(h), lin.Explored, lin.Partitions)
		},
		func(lin check.Result) string { return fmt.Sprintf(" over %d partitions", lin.Partitions) })
}
