package models

import (
	"fmt"

	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// KV is the schedule-fuzz model for the batched replication path
// underlying cmd/basicskv: clients submit bursts of commands (several
// per wave, mirroring the kv engine's staged submission) against
// replicas configured with a small MaxBatch, so every run forces batch
// packing and bursts spread over consecutive consensus slots. The
// oracle checks the invariants batching must not break: exactly-once
// apply (no entry ID delivered twice at any replica), identical total
// order (pairwise prefix equality of the applied ID sequences across
// replicas), and — on benign even seeds — every burst completing with
// fewer consensus slots than applied commands (batching actually
// happened). Odd seeds
// add a bounded fault schedule that always heals: a minority
// partition, a crash-recovery of the bystander replica, and sometimes
// a lossy window; under faults stalled bursts stay pending.
type KV struct{}

// kvReplicas/kvClients fix the cluster shape: replicas 0..2 each run
// one client chain, replica 3 is a bystander (and the fault schedule's
// crash victim). kvMaxBatch < kvBurstLen forces every burst across
// multiple slots.
const (
	kvReplicas = 4
	kvClients  = 3
	kvBursts   = 6
	kvBurstLen = 7
	kvMaxBatch = 4
)

// Name implements scenario.Model.
func (*KV) Name() string { return "kv" }

// Generate implements scenario.Model.
func (*KV) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "kv", Seed: seed, Procs: kvReplicas}
	for c := 0; c < kvClients; c++ {
		for k := 1; k <= kvBursts*kvBurstLen; k++ {
			sc.Ops = append(sc.Ops, scenario.Op{Proc: c, Kind: scenario.OpPut, Key: c, Val: k})
		}
	}
	if seed%2 == 1 {
		sc.Faults = genHealingFaults(rng, kvReplicas, kvClients)
		sc.Faults = append(sc.Faults, genSnapCrash(rng, 400+rng.Int63n(1_500), rng.Intn(kvReplicas), 300, 900))
	}
	return sc
}

// Run implements scenario.Model.
func (*KV) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)

	// Per-replica applied sequences for the order and exactly-once
	// oracles; clientCB lets client replicas drive burst submission off
	// the apply hook. The hook is registered at construction
	// (WithApplyHook) rather than via the OnApply field so a
	// snapshot-crash restart's recovery replay is observed through the
	// same path: applied/seen are rewound to the recovered snapshot's
	// coverage and the replayed suffix re-extends them.
	applied := make([][]rbcast.MsgID, kvReplicas)
	seen := make([]map[rbcast.MsgID]bool, kvReplicas)
	clientCB := make([]func(e rsm.Entry), kvReplicas)
	nodes := make([]*rsm.Node, kvReplicas)
	js, ok := openJournals(res, kvReplicas)
	defer js.close()
	if !ok {
		return res
	}
	hook := func(j int) func(e rsm.Entry, at amp.Time) {
		return func(e rsm.Entry, _ amp.Time) {
			if seen[j][e.ID] {
				res.Failf("replica %d applied %v twice", j, e.ID)
				return
			}
			seen[j][e.ID] = true
			applied[j] = append(applied[j], e.ID)
			if cb := clientCB[j]; cb != nil {
				cb(e)
			}
		}
	}
	build := func(j int, rec *rsm.Recovery) *rsm.Node { // rec is nil on first boot
		nd := rsm.NewNode(kvReplicas, rsm.WithMaxBatch(kvMaxBatch),
			rsm.WithJournal(js.cur(j)), rsm.WithApplyHook(hook(j)), rsm.WithRecovery(rec))
		nd.Omega.Period = 16
		return nd
	}
	procs := make([]amp.Process, kvReplicas)
	for j := 0; j < kvReplicas; j++ {
		seen[j] = make(map[rbcast.MsgID]bool)
		nodes[j] = build(j, nil)
		procs[j] = nodes[j].Stack
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(amp.UniformDelay{Min: 1, Max: amp.Time(2 + cfg.Int63n(6))}),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	// Snapshot-crash faults (simSnapCrashes): the rebooted incarnation
	// must slot back into the same total order and never re-apply an
	// entry within an incarnation, so seen is rewound with applied.
	simSnapCrashes(sim, sc, res, js, applied, func(p int) *rsm.Node { return nodes[p] },
		func(p int, rec *rsm.Recovery, base int) {
			seen[p] = make(map[rbcast.MsgID]bool, base)
			for _, id := range applied[p] {
				seen[p][id] = true
			}
			nodes[p] = build(p, rec)
			sim.Replace(p, nodes[p].Stack)
			res.Tracef("snaprestart p%d base=%d applied=%d", p, base, len(applied[p]))
		})

	submitted := 0
	for c := 0; c < kvClients; c++ {
		c := c
		chain := sc.OpsFor(c)
		if len(chain) == 0 {
			continue
		}
		think := scenario.NewRand(sc.Seed).Derive(uint64(300 + c))
		next := 0
		burst := make(map[rbcast.MsgID]bool)
		var submit func()
		submit = func() {
			// A crashed client replica cannot submit (a killed one's
			// journal is closed): retry after restart.
			if sim.Crashed(c) {
				sim.Schedule(sim.Now()+200, submit)
				return
			}
			// Stage a whole burst back-to-back: with kvMaxBatch below the
			// burst length, the proposer must pack it across several
			// consecutive slots.
			for i := 0; i < kvBurstLen && next < len(chain); i++ {
				op := chain[next]
				key := fmt.Sprintf("k%d", op.Key)
				id := nodes[c].Submit(nodes[c].Ctx(), rsm.Command{Op: "put", Key: key, Val: op.Val})
				burst[id] = true
				submitted++
				next++
			}
		}
		clientCB[c] = func(e rsm.Entry) {
			if !burst[e.ID] {
				return
			}
			delete(burst, e.ID)
			res.Completed++
			if len(burst) == 0 && next < len(chain) {
				sim.Schedule(sim.Now()+amp.Time(1+think.Int63n(120)), submit)
			}
		}
		sim.Schedule(amp.Time(1+think.Int63n(100)), submit)
	}
	ampCrashes(sim, sc.Faults)
	sim.Run(400_000)
	res.Pending = submitted - res.Completed

	// Identical total order: every pair of applied sequences must agree
	// on their common prefix (replicas may lag, never diverge).
	for j := 1; j < kvReplicas; j++ {
		if i := divergence(applied[0], applied[j], 0, 0); i >= 0 {
			res.Failf("order divergence at slot-entry %d: replica 0 %v, replica %d %v",
				i, applied[0][i], j, applied[j][i])
			return res
		}
	}
	boundWork(res, putPerOp, submitted, kvReplicas, func(p int) int { return nodes[p].Len() })
	slots := nodes[0].SlotsDelivered()
	for j := 0; j < kvReplicas; j++ {
		res.Tracef("replica %d applied %d", j, len(applied[j]))
	}
	res.Tracef("slots=%d completed=%d pending=%d", slots, res.Completed, res.Pending)
	if len(sc.Faults) == 0 {
		// Benign schedule: every burst must complete, and batching must
		// be evident — strictly fewer slots than applied commands.
		if res.Pending != 0 {
			res.Failf("benign run left %d of %d commands pending", res.Pending, submitted)
			return res
		}
		if res.Completed > 0 && slots >= res.Completed {
			res.Failf("no batching: %d slots for %d commands", slots, res.Completed)
			return res
		}
	}
	return res
}
