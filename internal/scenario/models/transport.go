package models

import (
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/node"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
	"distbasics/internal/transport"
)

// Transport is the scenario adapter for the real-transport runtime: the
// rsm cluster runs over the Loopback+Chaos+Runtime stack (node.Start,
// as cmd/basicsd deploys over TCP+Chaos, minus the sockets) instead of
// amp.Sim, so the campaign fuzzes the Runtime's byte path, the codec,
// Chaos and node's bring-up, not just the protocols above them. Clients
// chain puts to per-client keys and the combined history is checked for
// per-key linearizability; a crash fault stops a replica's runtime
// mid-run and rebuilds it from its journal (the deterministic twin of
// the e2e kill -9 demo). Only the bystander crashes and every fault
// heals, so every put must return (stranded), as in the rsm model.
type Transport struct{}

// tpReplicas/tpClients/tpPuts fix the cluster shape: replicas 0..2 are
// clients owning one key each; replica 3 is a bystander and the crash
// schedule's victim (a majority of 3 survives its absence).
const (
	tpReplicas = 4
	tpClients  = 3
	tpPuts     = 5
	tpHorizon  = 400_000
)

// Name implements scenario.Model.
func (*Transport) Name() string { return "transport" }

// Generate implements scenario.Model.
func (*Transport) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "transport", Seed: seed, Procs: tpReplicas}
	for c := 0; c < tpClients; c++ {
		for k := 1; k <= tpPuts; k++ {
			sc.Ops = append(sc.Ops, scenario.Op{Proc: c, Kind: scenario.OpPut, Key: c, Val: k})
		}
	}
	if seed%2 == 1 {
		// Bounded faults that always heal, mirroring the rsm model: a
		// lossy window, one minority partition, and a crash-recovery of
		// the bystander replica (journal restart).
		lf := rng.Int63n(5_000)
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultDrop, Pct: 10 + rng.Intn(15),
			From: lf, Until: lf + 5_000 + rng.Int63n(20_000), Sub: rng.Int63(),
		})
		pf := 2_000 + rng.Int63n(30_000)
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultPartition,
			From: pf, Until: pf + 2_000 + rng.Int63n(10_000),
			Group: []int{rng.Intn(tpReplicas)},
		})
		cf := 2_000 + rng.Int63n(40_000)
		cu := cf + 5_000 + rng.Int63n(20_000)
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultCrash, Proc: tpClients,
			From: cf, Until: cu,
		})
		// The snapshot-crash also hits the bystander, after the plain
		// crash window.
		sc.Faults = append(sc.Faults, genSnapCrash(rng, cu+2_000+rng.Int63n(20_000), tpClients, 2_000, 10_000))
	}
	return sc
}

// tpStart builds and starts replica i's stack on lb under the scenario's
// chaos schedule — the daemons' own bring-up (node.Start), here on
// Loopback and its virtual clock; crash faults tear the stack down and
// rebuild it in place.
func tpStart(sc *scenario.Scenario, i int, lb *transport.Loopback, opts ...rsm.NodeOption) *node.Replica {
	tr := transport.NewChaos(lb.Node(i), lb.Clock(), tpChaos(sc, i)...)
	return node.Start(rsm.NewNode(tpReplicas, opts...), tr, lb.Clock(), int64(i+1))
}

// tpChaos maps scenario faults onto each sender's chaos rule schedule.
// Crash faults are handled separately (they are runtime events, not
// link perturbations); unknown kinds are skipped so shrunk scenarios
// still run.
func tpChaos(sc *scenario.Scenario, sender int) []transport.ChaosRule {
	base := scenario.NewRand(sc.Seed).Derive(uint64(300 + sender))
	// An always-on delay rule gives every seed reordering pressure.
	rules := []transport.ChaosRule{
		{Kind: transport.ChaosDelay, Pct: 4, Seed: base.Int63()},
	}
	for _, f := range sc.Faults {
		r := transport.ChaosRule{
			From: amp.Time(f.From), Until: amp.Time(f.Until),
			Pct: f.Pct, Group: f.Group,
			Seed: f.Sub ^ int64(sender+1)<<8, // distinct stream per sender
		}
		switch f.Kind {
		case scenario.FaultDrop:
			r.Kind = transport.ChaosDrop
		case scenario.FaultPartition:
			r.Kind = transport.ChaosPartition
		case scenario.FaultIsolate:
			r.Kind = transport.ChaosIsolate
		case scenario.FaultSkew:
			if sender%2 != 0 {
				continue
			}
			r.Kind = transport.ChaosDelay
		default:
			continue
		}
		rules = append(rules, r)
	}
	return rules
}

// Run implements scenario.Model.
func (*Transport) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	lb := transport.NewLoopback(tpReplicas) // also the run's clock
	rec := check.NewRecorder()

	nodes := make([]*node.Replica, tpReplicas)
	js, ok := openJournals(res, tpReplicas)
	defer js.close()
	if !ok {
		return res
	}
	for i := 0; i < tpReplicas; i++ {
		nodes[i] = tpStart(sc, i, lb, rsm.WithJournal(js.cur(i)))
	}

	// Crash faults: at From stop the victim's runtime, close its journal
	// and take its endpoint down; at Until reopen the journal and rebuild
	// the stack from it (the in-process kill -9), which catches up via the
	// TO layer's anti-entropy fetch. Snapshot-crash faults additionally
	// run a compaction inside the event loop first, with the install
	// interrupted after step Pct — the reboot then recovers the old or
	// new snapshot, never a hybrid. down/fired keep overlapping windows
	// on one victim from double-stopping or double-starting a stack;
	// appliedBase records how many applies the recovered snapshot covers
	// so the order oracle below compares absolute positions.
	down := make([]bool, tpReplicas)
	appliedBase := make([]int, tpReplicas)
	for _, f := range sc.Faults {
		p, snap := f.Proc, f.Kind == scenario.FaultSnapCrash
		if p < 0 || p >= tpReplicas || (!snap && f.Kind != scenario.FaultCrash) {
			continue
		}
		fired := false
		lb.AfterFunc(amp.Time(f.From), func() {
			if down[p] {
				return
			}
			fired, down[p] = true, true
			if snap {
				step := rsm.SnapStep(f.Pct % 4)
				nodes[p].RT.Do(func(amp.Context) { snapCrash(res, p, step, js.cur(p), nodes[p].Node) })
			}
			nodes[p].RT.Stop()
			js.crash(p)
			lb.SetDown(p, true)
			if !snap {
				res.Tracef("crash p%d @%d", p, f.From)
			}
		})
		if !snap && f.Until <= f.From {
			continue // a plain crash with no recovery window stays down
		}
		lb.AfterFunc(amp.Time(f.Until), func() {
			if !fired {
				return
			}
			rec := js.reopen(p)
			if rec == nil {
				return // the run failed; p stays down
			}
			lb.SetDown(p, false)
			appliedBase[p] = recoveredBase(rec)
			nodes[p] = tpStart(sc, p, lb, rsm.WithJournal(js.cur(p)), rsm.WithRecovery(rec))
			down[p] = false
			if snap {
				res.Tracef("snaprestart p%d @%d base=%d", p, f.Until, appliedBase[p])
			} else {
				res.Tracef("restart p%d @%d applied=%d", p, f.Until, nodes[p].Node.Len())
			}
		})
	}

	// Client chains, as in the rsm model: a put returns when the
	// client's own replica applies it, and the follow-up read of the
	// key's local state at that point is a valid linearization read.
	total, done := 0, 0
	for c := 0; c < tpClients; c++ {
		ops := sc.OpsFor(c)
		total += len(ops)
		putChain{
			rec: rec, proc: c, stride: tpClients, ops: ops, node: nodes[c].Node,
			submit: func(cmd rsm.Command) (id rbcast.MsgID) {
				nodes[c].RT.Do(func(amp.Context) { id = nodes[c].Node.Submit(nodes[c].Node.Ctx(), cmd) })
				return id
			},
			after: func(d amp.Time, f func()) { lb.AfterFunc(d, f) },
			think: scenario.NewRand(sc.Seed).Derive(uint64(200 + c)), first: 300, gap: 400,
			done: func() { done++ },
		}.start()
	}
	// Run in fixed chunks with a deterministic early exit once every
	// chain completes (chunk boundaries are part of the scenario's
	// definition, so replays agree regardless of when chains finish).
	for until := amp.Time(25_000); until <= tpHorizon; until += 25_000 {
		lb.Run(until)
		if done == total {
			break
		}
	}

	h := rec.History()
	traceHistory(res, h)
	// Cross-replica safety: applied orders must agree position-wise. A
	// replica restarted from a snapshot only holds the suffix past the
	// snapshot's coverage, so sequences are compared at absolute apply
	// positions (appliedBase[i] + local index).
	ids := func(i int) []rbcast.MsgID {
		var out []rbcast.MsgID
		for _, e := range nodes[i].Node.Applied() {
			out = append(out, e.ID)
		}
		return out
	}
	boundWork(res, putPerOp, total, tpReplicas, func(p int) int { return nodes[p].Node.Len() })
	ref := ids(0)
	for i := 1; i < tpReplicas; i++ {
		got := ids(i)
		if a := divergence(ref, got, appliedBase[0], appliedBase[i]); a >= 0 {
			res.Failf("replicas 0 and %d diverge at slot order %d: %v vs %v",
				i, a, ref[a-appliedBase[0]], got[a-appliedBase[i]])
			return res
		}
	}
	if stranded(res, sc, tpClients, done, total) {
		return res
	}
	return linearizeKeyed(res, h)
}
