package models

import (
	"fmt"

	"distbasics/internal/abd"
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/scenario"
)

// ABD is the schedule-fuzz linearizability model for the ABD register
// emulation: the scenario's write/read chains run over an amp simulation
// under the scenario's fault schedule, and the recorded history must
// pass the Wing–Gong checker against the sequential register spec. ABD
// guarantees atomicity whenever quorums intersect, no matter what the
// network does — operations whose quorum messages were lost simply never
// return and enter the history as pending, which the checker may
// linearize or drop.
type ABD struct {
	// WeakReadQuorum, when > 0, installs abd.Register's mutation knob:
	// reads return after that many replies instead of a majority. Used
	// by the harness's mutation tests; the oracle must catch it.
	WeakReadQuorum int
}

// Name implements scenario.Model.
func (*ABD) Name() string { return "abd" }

// Generate implements scenario.Model: one writer chaining 5 writes,
// 2..3 reader chains of 4 reads, and a random amp fault schedule.
func (*ABD) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 4 + rng.Intn(4) // 4..7 replicas
	sc := &scenario.Scenario{Model: "abd", Seed: seed, Procs: n}
	for k := 1; k <= 5; k++ {
		sc.Ops = append(sc.Ops, scenario.Op{Proc: 0, Kind: scenario.OpWrite, Val: k})
	}
	readers := 2 + rng.Intn(2)
	for r := 1; r <= readers && r < n; r++ {
		for k := 0; k < 4; k++ {
			sc.Ops = append(sc.Ops, scenario.Op{Proc: r, Kind: scenario.OpRead})
		}
	}
	sc.Faults = genAmpFaults(rng.Derive(1), n, 1500)
	return sc
}

// regOpString renders a register op for trace lines ("read" /
// "write(3)") — a stable format the package fences parse.
func regOpString(arg any) string {
	switch a := arg.(type) {
	case check.ReadOp:
		return "read"
	case check.WriteOp:
		return fmt.Sprintf("write(%v)", a.V)
	default:
		return fmt.Sprintf("%v", arg)
	}
}

// traceRegisterHistory counts h's completed and pending operations
// into res and traces one line per operation, in the register models'
// format (abd; abdmulti, whose KeyedOp arguments render as themselves).
func traceRegisterHistory(res *scenario.Result, h check.History) {
	for _, op := range h {
		if op.Return == check.Pending {
			res.Pending++
			res.Tracef("p%d %s pending @%d", op.Proc, regOpString(op.Arg), op.Call)
		} else {
			res.Completed++
			res.Tracef("p%d %s -> %v @[%d,%d]", op.Proc, regOpString(op.Arg), op.Out, op.Call, op.Return)
		}
	}
}

// Run implements scenario.Model.
func (m *ABD) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	n := sc.Procs
	const writer = 0
	if n < 2 {
		res.Tracef("degenerate: %d processes", n)
		return res
	}
	// Config draws come from a private sub-stream of the seed so they
	// survive shrinking edits to the op/fault lists.
	cfg := scenario.NewRand(sc.Seed).Derive(100)

	regs := make([]*abd.Register, n)
	stacks := make([]*amp.Stack, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		r := abd.NewRegister(n, writer)
		r.FastRead = cfg.Bool()
		r.ReadQuorum = m.WeakReadQuorum
		regs[i] = r
		stacks[i] = amp.NewStack(r)
		procs[i] = stacks[i]
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(ampDelay(cfg)),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	var ops []check.Op
	call := func(proc int, arg any) int {
		ops = append(ops, check.Op{Proc: proc, Arg: arg, Call: int64(sim.Now()), Return: check.Pending})
		return len(ops) - 1
	}
	ret := func(idx int, out any) {
		ops[idx].Out = out
		ops[idx].Return = int64(sim.Now())
	}

	// Each process issues its scenario ops as a chain: the next op starts
	// a random think-time after the previous completes (per-process
	// sequentiality for free). Think times draw from per-process streams
	// so shrinking one chain never perturbs another.
	for p := 0; p < n; p++ {
		chain := sc.OpsFor(p)
		if len(chain) == 0 {
			continue
		}
		p := p
		think := scenario.NewRand(sc.Seed).Derive(uint64(200 + p))
		var issue func(k int)
		issue = func(k int) {
			if k >= len(chain) {
				return
			}
			op := chain[k]
			next := func() {
				sim.Schedule(sim.Now()+amp.Time(1+think.Int63n(300)), func() { issue(k + 1) })
			}
			switch {
			case op.Kind == scenario.OpWrite && p == writer:
				idx := call(p, check.WriteOp{V: op.Val})
				regs[p].Write(stacks[p].Ctx(0), op.Val, func(amp.Time) {
					ret(idx, nil)
					next()
				})
			case op.Kind == scenario.OpRead:
				idx := call(p, check.ReadOp{})
				regs[p].Read(stacks[p].Ctx(0), func(val any, _ amp.Time) {
					ret(idx, val)
					next()
				})
			default: // invalid for this model (hand-edited scenario): skip
				issue(k + 1)
			}
		}
		sim.Schedule(amp.Time(1+think.Int63n(400)), func() { issue(0) })
	}
	ampProcFaults(sim, sc.Faults)
	sim.Run(30_000)

	h := check.History(ops)
	traceRegisterHistory(res, h)
	return linearize(res, check.RegisterSpec{}, h,
		func(lin check.Result) string {
			return fmt.Sprintf("%d completed + %d pending ops, %d states explored", res.Completed, res.Pending, lin.Explored)
		},
		func(lin check.Result) string { return fmt.Sprintf(": order %v (%d explored)", lin.Order, lin.Explored) })
}
