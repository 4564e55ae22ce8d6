package models

import (
	"fmt"

	"distbasics/internal/abd"
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/scenario"
)

// ABDMulti is the multi-register ABD model at the rebuilt checker's
// scale: several independent single-writer registers share one simulated
// system (one component per register on every replica's stack), the
// scenario's chains produce a KeyedOp-tagged history of hundreds of
// operations — far past the checker's former 63-op global cap — and the
// oracle checks it per register via RegisterArraySpec's Partitioner plus
// the shared witness validator. Odd seeds add the full fault schedule;
// even seeds are benign (every chain completes).
type ABDMulti struct{}

// Cluster shape: chain processes are allocated three per register —
// the writer chain, then two read chains at replicas (reg+1)%n and
// (reg+2)%n.
const (
	amRegs       = 6
	amWrites     = 12
	amReadChains = 2
	amReads      = 11
)

// Name implements scenario.Model.
func (*ABDMulti) Name() string { return "abdmulti" }

// Generate implements scenario.Model.
func (*ABDMulti) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 5 + rng.Intn(3) // 5..7 replicas
	sc := &scenario.Scenario{Model: "abdmulti", Seed: seed, Procs: n}
	proc := 0
	for r := 0; r < amRegs; r++ {
		for k := 1; k <= amWrites; k++ {
			sc.Ops = append(sc.Ops, scenario.Op{Proc: proc, Kind: scenario.OpWrite, Key: r, Val: k})
		}
		proc++
		for rd := 0; rd < amReadChains; rd++ {
			for k := 0; k < amReads; k++ {
				sc.Ops = append(sc.Ops, scenario.Op{Proc: proc, Kind: scenario.OpRead, Key: r})
			}
			proc++
		}
	}
	if seed%2 == 1 {
		sc.Faults = genAmpFaults(rng.Derive(1), n, 1500)
	}
	return sc
}

// Run implements scenario.Model.
func (*ABDMulti) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	n := sc.Procs
	if n < 2 {
		res.Tracef("degenerate: %d replicas", n)
		return res
	}
	cfg := scenario.NewRand(sc.Seed).Derive(100)

	regs := make([][]*abd.Register, amRegs) // regs[r][i]: register r at replica i
	comps := make([][]amp.Component, n)
	for r := 0; r < amRegs; r++ {
		writer := r % n
		regs[r] = make([]*abd.Register, n)
		for i := 0; i < n; i++ {
			reg := abd.NewRegister(n, writer)
			reg.FastRead = cfg.Bool()
			regs[r][i] = reg
			comps[i] = append(comps[i], reg)
		}
	}
	stacks := make([]*amp.Stack, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		stacks[i] = amp.NewStack(comps[i]...)
		procs[i] = stacks[i]
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(amp.UniformDelay{Min: 1, Max: amp.Time(2 + cfg.Int63n(10))}),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	var ops []check.Op
	call := func(proc, reg int, op any) int {
		ops = append(ops, check.Op{
			Proc: proc, Arg: check.KeyedOp{Key: reg, Op: op},
			Call: int64(sim.Now()), Return: check.Pending,
		})
		return len(ops) - 1
	}
	ret := func(idx int, out any) {
		ops[idx].Out = out
		ops[idx].Return = int64(sim.Now())
	}

	// One chain per scenario proc id: proc p drives register p/3; role
	// p%3 is the writer chain (0) or a read chain at replica
	// (reg+role)%n. The writer replica belongs to the chain, so an op
	// keyed to another register (a mutant's retarget) is skipped.
	for p := 0; p < 3*amRegs; p++ {
		chain := sc.OpsFor(p)
		if len(chain) == 0 {
			continue
		}
		p := p
		reg, role := p/3, p%3
		writer := reg % n
		at := (reg + role) % n
		think := scenario.NewRand(sc.Seed).Derive(uint64(200 + p))
		var issue func(k int)
		issue = func(k int) {
			if k >= len(chain) {
				return
			}
			op := chain[k]
			next := func() {
				sim.Schedule(sim.Now()+amp.Time(1+think.Int63n(250)), func() { issue(k + 1) })
			}
			switch {
			case op.Key == reg && op.Kind == scenario.OpWrite && role == 0:
				idx := call(p, reg, check.WriteOp{V: op.Val})
				regs[reg][writer].Write(stacks[writer].Ctx(reg), op.Val, func(amp.Time) {
					ret(idx, nil)
					next()
				})
			case op.Key == reg && op.Kind == scenario.OpRead:
				idx := call(p, reg, check.ReadOp{})
				regs[reg][at].Read(stacks[at].Ctx(reg), func(val any, _ amp.Time) {
					ret(idx, val)
					next()
				})
			default: // invalid for this model (hand-edited or mutated scenario): skip
				issue(k + 1)
			}
		}
		sim.Schedule(amp.Time(1+think.Int63n(300)), func() { issue(0) })
	}
	ampProcFaults(sim, sc.Faults)
	sim.Run(60_000)

	h := check.History(ops)
	traceRegisterHistory(res, h)
	return linearize(res, check.RegisterArraySpec{}, h,
		func(lin check.Result) string {
			return fmt.Sprintf("n=%d, %d completed + %d pending ops over %d partitions, %d states explored",
				n, res.Completed, res.Pending, lin.Partitions, lin.Explored)
		},
		func(lin check.Result) string {
			return fmt.Sprintf(" over %d partitions (%d explored)", lin.Partitions, lin.Explored)
		})
}
