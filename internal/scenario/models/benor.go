package models

import (
	"distbasics/internal/amp"
	"distbasics/internal/mpcons"
	"distbasics/internal/scenario"
)

// BenOr is the agreement/validity model for Ben-Or's randomized binary
// consensus: the scenario's proposals (one per process) run under the
// scenario's fault schedule, and the oracle asserts safety — every
// decided value equals every other decided value and was somebody's
// input. Termination is NOT asserted: under partitions or heavy loss
// the algorithm legitimately stalls (it is t-resilient, not
// loss-tolerant), and under benign schedules termination holds only
// with probability 1; the model just reports decider counts.
type BenOr struct {
	// CoinBias, when non-zero, installs mpcons.BenOr's mutation knob (a
	// constant coin that ignores phase-2 reports). Used by the harness's
	// mutation tests; the agreement oracle must catch it.
	CoinBias int
}

// Name implements scenario.Model.
func (*BenOr) Name() string { return "benor" }

// Generate implements scenario.Model: 3..5 processes with mixed binary
// proposals and a random fault schedule biased toward partitions and
// loss (the regime where safety is earned, not given).
func (*BenOr) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 3 + rng.Intn(3)
	sc := &scenario.Scenario{Model: "benor", Seed: seed, Procs: n}
	for p := 0; p < n; p++ {
		v := rng.Intn(2)
		if p == 0 {
			v = 0 // pin one 0 and one 1 so mixed inputs are guaranteed
		}
		if p == 1 {
			v = 1
		}
		sc.Ops = append(sc.Ops, scenario.Op{Proc: p, Kind: scenario.OpPropose, Val: v})
	}
	sc.Faults = genAmpFaults(rng.Derive(1), n, 800)
	// Half the seeds add a second, late partition window: the decide
	// messages of an early decider get lost, which is exactly the window
	// a broken coin needs to drive survivors to the other value.
	if rng.Bool() {
		from := 60 + rng.Int63n(300)
		k := 1 + rng.Intn(n/2)
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultPartition,
			From: from, Until: from + 150 + rng.Int63n(500),
			Group: scenario.SortGroup(rng.Perm(n)[:k]),
		})
	}
	return sc
}

// Run implements scenario.Model.
func (m *BenOr) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	n := sc.Procs
	cfg := scenario.NewRand(sc.Seed).Derive(100)

	// A process with no surviving Propose op (shrunk away) still runs,
	// proposing 0 — Ben-Or needs all n participants to reach quorums.
	inputs := make([]int, n)
	for _, op := range sc.Ops {
		if op.Kind == scenario.OpPropose && op.Proc >= 0 && op.Proc < n {
			inputs[op.Proc] = op.Val & 1
		}
	}
	decided := make([]int, n)
	decidedAt := make([]amp.Time, n)
	for i := range decided {
		decided[i] = -1
	}
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		i := i
		bo := mpcons.NewBenOr(inputs[i], func(v any, at amp.Time) {
			decided[i] = v.(int)
			decidedAt[i] = at
		})
		bo.CoinBias = m.CoinBias
		procs[i] = amp.NewStack(bo)
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(ampDelay(cfg)),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))
	ampProcFaults(sim, sc.Faults)
	sim.Run(60_000)

	first := -1
	for i, d := range decided {
		if d < 0 {
			res.Pending++
			res.Tracef("p%d input=%d undecided", i, inputs[i])
			continue
		}
		res.Completed++
		res.Tracef("p%d input=%d decided %d @%d", i, inputs[i], d, decidedAt[i])
		if first < 0 {
			first = d
		}
		valid := false
		for _, in := range inputs {
			if in == d {
				valid = true
			}
		}
		if !valid {
			res.Failf("validity violation: p%d decided %d, inputs %v", i, d, inputs)
		}
		if d != first {
			res.Failf("agreement violation: decisions %v under inputs %v", decided, inputs)
		}
	}
	if !res.Failed {
		res.Tracef("safe: %d/%d decided", res.Completed, n)
	}
	return res
}
