package models

import (
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// RSM is the schedule-fuzz model of the replicated state machine (§5.1:
// TO-broadcast over Ω-driven consensus) on amp.Sim, with the daemons'
// journals on every replica. Client replicas 0..4 each own three keys
// and run a put chain per key (putChain), submitting one put per chain
// back to back: a burst above MaxBatch, so it spans slots. Replica 5 is
// the bystander. The oracles: per-key linearizability of the history;
// exactly-once apply per replica incarnation; identical total order
// (pairwise agreement at every absolute apply position both replicas
// hold); bounded work, judged at every chunk boundary; every put
// returning, on every seed; and on benign (even) seeds, in fewer slots
// than puts when a burst exceeds MaxBatch (batching happened). Odd seeds
// add faults that always heal (genHealingFaults) and a snapshot-crash of
// the bystander (simSnapCrashes), which must slot back into the same
// total order. Only the bystander ever loses its memory, so every put's
// originator is up once the faults heal, and the TO layer must deliver
// what it broadcast: a put still pending at the horizon was stranded.
type RSM struct{}

const (
	rsmReplicas = 6
	rsmClients  = 5
	rsmKeys     = 3 // per client: client c owns c, c+5 and c+10
	rsmPuts     = 7 // per key
	rsmMaxBatch = 2 // below a burst of rsmKeys
	rsmChunk    = 10_000
	rsmHorizon  = 400_000
)

// Name implements scenario.Model.
func (*RSM) Name() string { return "rsm" }

// Generate implements scenario.Model.
func (*RSM) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "rsm", Seed: seed, Procs: rsmReplicas}
	for c := 0; c < rsmClients; c++ {
		for k := 1; k <= rsmPuts; k++ {
			for b := 0; b < rsmKeys; b++ {
				sc.Ops = append(sc.Ops, scenario.Op{Proc: c, Kind: scenario.OpPut, Key: c + b*rsmClients, Val: k})
			}
		}
	}
	if seed%2 == 1 {
		sc.Faults = genHealingFaults(rng, rsmReplicas, rsmClients)
		sc.Faults = append(sc.Faults, genSnapCrash(rng, 400+rng.Int63n(1_500), rsmClients, 300, 900))
	}
	return sc
}

// Run implements scenario.Model.
func (*RSM) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	hist := check.NewRecorder()
	js, ok := openJournals(res, rsmReplicas)
	defer js.close()
	if !ok {
		return res
	}

	// applied[j] is replica j's applied IDs at absolute apply positions
	// and seen[j] its current incarnation's, both recorded by a
	// construction-time hook (WithApplyHook), which a reboot's recovery
	// replay goes through too: a reboot rewinds both to the recovered
	// snapshot's coverage and the replayed suffix re-extends them.
	applied := make([][]rbcast.MsgID, rsmReplicas)
	seen := make([]map[rbcast.MsgID]bool, rsmReplicas)
	build := func(j int, rec *rsm.Recovery) *rsm.Node { // rec is nil on first boot
		nd := rsm.NewNode(rsmReplicas, rsm.WithMaxBatch(rsmMaxBatch), rsm.WithJournal(js.cur(j)), rsm.WithRecovery(rec),
			rsm.WithApplyHook(func(e rsm.Entry, _ amp.Time) {
				if seen[j][e.ID] {
					res.Failf("replica %d applied %v twice", j, e.ID)
					return
				}
				seen[j][e.ID] = true
				applied[j] = append(applied[j], e.ID)
			}))
		nd.Omega.Period = 16
		return nd
	}
	nodes := make([]*rsm.Node, rsmReplicas)
	procs := make([]amp.Process, rsmReplicas)
	for j := range nodes {
		seen[j] = make(map[rbcast.MsgID]bool)
		nodes[j] = build(j, nil)
		procs[j] = nodes[j].Stack
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(amp.UniformDelay{Min: 1, Max: amp.Time(2 + cfg.Int63n(6))}),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))
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

	total, done, widest := 0, 0, 0 // widest: the largest burst
	for c := 0; c < rsmClients; c++ {
		ops := sc.OpsFor(c)
		total += len(ops)
		widest = max(widest, putChain{
			rec: hist, proc: c, stride: rsmClients, ops: ops, node: nodes[c],
			submit: func(cmd rsm.Command) rbcast.MsgID { return nodes[c].Submit(nodes[c].Ctx(), cmd) },
			after: func(d amp.Time, f func()) {
				var try func()
				try = func() {
					if sim.Crashed(c) { // a paused or killed client submits nothing
						sim.Schedule(sim.Now()+200, try)
						return
					}
					f()
				}
				sim.Schedule(sim.Now()+d, try)
			},
			think: scenario.NewRand(sc.Seed).Derive(uint64(200 + c)), first: 100, gap: 120,
			done: func() { done++ },
		}.start())
	}
	ampProcFaults(sim, sc.Faults)
	// Run in fixed chunks, stopping at the first boundary where every
	// put has returned and every fault window has closed, or where a
	// replica has done more work than the bound allows (chunk boundaries
	// are part of the scenario's definition, so replays agree).
	var quiet amp.Time
	for _, f := range sc.Faults {
		quiet = max(quiet, amp.Time(f.Until))
	}
	for until := amp.Time(rsmChunk); until <= rsmHorizon; until += rsmChunk {
		sim.Run(until)
		if boundWork(res, putPerOp, len(sc.Ops), rsmReplicas, func(p int) int { return nodes[p].Len() }); res.Failed {
			break
		}
		if done == total && until >= quiet {
			break
		}
	}

	h := hist.History()
	traceHistory(res, h)
	for a := 0; a < rsmReplicas; a++ {
		for b := a + 1; b < rsmReplicas; b++ {
			if i := divergence(applied[a], applied[b], 0, 0); i >= 0 {
				res.Failf("order divergence at entry %d: replica %d %v, replica %d %v", i, a, applied[a][i], b, applied[b][i])
				return res
			}
		}
	}
	slots := 0
	for j, nd := range nodes {
		slots = max(slots, nd.SlotsDelivered())
		res.Tracef("replica %d applied %d", j, len(applied[j]))
	}
	res.Tracef("slots=%d, %d of %d puts returned", slots, done, total)
	if stranded(res, sc, rsmClients, done, total) {
		return res
	}
	if len(sc.Faults) == 0 && widest > rsmMaxBatch && slots >= done {
		res.Failf("no batching: %d slots for %d puts", slots, done)
		return res
	}
	return linearizeKeyed(res, h)
}
