package models

import (
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// RSM is the schedule-fuzz linearizability model for the replicated
// state machine: several client replicas each own one key and chain put
// commands through TO-broadcast, treating a command as returned when its
// own replica applies it (Node.OnApply) and reading the key's local
// state at that point — a valid linearization read, because the client's
// prior puts are exactly the completed ops on that key. The combined
// multi-key history is checked per key via RegisterArraySpec's
// Partitioner. Even seeds run benign schedules (every chain completes);
// odd seeds add a bounded fault schedule that always heals, under which
// stalled commands stay pending.
type RSM struct{}

// rsmReplicas/rsmClients/rsmPuts fix the cluster shape: replicas 0..4
// each own one key, replica 5 is a bystander (and the fault schedule's
// crash victim).
const (
	rsmReplicas = 6
	rsmClients  = 5
	rsmPuts     = 21
)

// Name implements scenario.Model.
func (*RSM) Name() string { return "rsm" }

// Generate implements scenario.Model.
func (*RSM) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "rsm", Seed: seed, Procs: rsmReplicas}
	for c := 0; c < rsmClients; c++ {
		for k := 1; k <= rsmPuts; k++ {
			sc.Ops = append(sc.Ops, scenario.Op{Proc: c, Kind: scenario.OpPut, Key: c, Val: k})
		}
	}
	if seed%2 == 1 {
		sc.Faults = genHealingFaults(rng, rsmReplicas, rsmClients)
	}
	return sc
}

// Run implements scenario.Model.
func (*RSM) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	rec := check.NewRecorder()

	nodes := make([]*rsm.Node, rsmReplicas)
	procs := make([]amp.Process, rsmReplicas)
	for j := 0; j < rsmReplicas; j++ {
		nodes[j] = rsm.NewNode(rsmReplicas)
		nodes[j].Omega.Period = 16
		procs[j] = nodes[j].Stack
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(amp.UniformDelay{Min: 1, Max: amp.Time(2 + cfg.Int63n(6))}),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	for c := 0; c < rsmClients; c++ {
		nd := nodes[c]
		putChain{
			rec: rec, proc: c, ops: sc.OpsFor(c), node: nd,
			submit: func(cmd rsm.Command) rbcast.MsgID { return nd.Submit(nd.Ctx(), cmd) },
			after:  func(d amp.Time, f func()) { sim.Schedule(sim.Now()+d, f) },
			think:  scenario.NewRand(sc.Seed).Derive(uint64(200 + c)), first: 100, gap: 120,
			done: func() {},
		}.start()
	}
	ampCrashes(sim, sc.Faults)
	sim.Run(400_000)

	boundWork(res, putPerOp, len(sc.Ops), rsmReplicas, func(p int) int { return nodes[p].Len() })
	h := rec.History()
	traceHistory(res, h)
	return linearizeKeyed(res, h)
}
