package models

import (
	"fmt"

	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/node"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
	"distbasics/internal/transport"
)

// Transport is the scenario adapter for the real-transport runtime: the
// rsm cluster runs over the full Loopback+Chaos+Resilient+Runtime stack
// (the same layering cmd/basicsd deploys over TCP, minus the sockets)
// instead of amp.Sim, so the campaign fuzzes the transport layer's
// retry/backoff/shedding machinery and the failure-detector degradation
// contract, not just the protocols above them. Clients chain puts to
// per-client keys and the combined history is checked for per-key
// linearizability; a crash fault stops a replica's runtime mid-run and
// rebuilds it from its journal (the deterministic twin of the e2e
// kill -9 demo).
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
		// Snapshot-crash on the bystander, disjoint from the plain crash
		// window: compact the journal with a SIGKILL landing after install
		// step Pct, then reboot from whatever the journal recovers.
		sf := cu + 2_000 + rng.Int63n(20_000)
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultSnapCrash, Proc: tpClients,
			From: sf, Until: sf + 2_000 + rng.Int63n(10_000),
			Pct: rng.Intn(4),
		})
	}
	return sc
}

// tpPolicy is the retry policy tuned to Loopback's ~2-tick RTT (see the
// runtime tests: the 40-tick wall-clock default saturates a virtual
// cluster under chaos).
func tpPolicy(seed int64) transport.Policy {
	return transport.Policy{SendTimeout: 10, RetryBase: 5, RetryCap: 80, Seed: seed}
}

// tpStart builds and starts replica i's stack over tr — the daemons'
// own bring-up (node.Start), here on Loopback and its virtual clock;
// crash faults tear the stack down and rebuild it in place.
func tpStart(i int, tr transport.Transport, clock transport.Clock, opts ...rsm.NodeOption) *node.Replica {
	return node.Start(rsm.NewNode(tpReplicas, opts...), tr, clock, tpPolicy(int64(i+1)), int64(i+1))
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
	lb := transport.NewLoopback(tpReplicas)
	clock := lb.Clock()
	rec := check.NewRecorder()

	nodes := make([]*node.Replica, tpReplicas)
	journals := make([]*rsm.MemJournal, tpReplicas)
	for i := 0; i < tpReplicas; i++ {
		journals[i] = rsm.NewMemJournal()
		var tr transport.Transport = lb.Node(i)
		if rules := tpChaos(sc, i); len(rules) > 0 {
			tr = transport.NewChaos(tr, clock, rules...)
		}
		nodes[i] = tpStart(i, tr, clock, rsm.WithJournal(journals[i]))
	}

	// Crash faults: stop the victim's runtime and take its endpoint down
	// at From; at Until rebuild the whole stack from the journal (the
	// in-process kill -9). The restarted node catches up via the TO
	// layer's anti-entropy fetch. Snapshot-crash faults additionally run
	// a compaction inside the event loop first, with the install
	// interrupted after step Pct — the reboot then recovers the old or
	// new snapshot, never a hybrid. down/fired keep overlapping windows
	// on one victim from double-stopping or double-starting a stack;
	// appliedBase records how many applies the recovered snapshot covers
	// so the order oracle below compares absolute positions.
	down := make([]bool, tpReplicas)
	appliedBase := make([]int, tpReplicas)
	restart := func(p int) {
		lb.SetDown(p, false)
		rec := journals[p].Recovery()
		appliedBase[p] = 0
		if rec.Snap != nil {
			appliedBase[p] = rec.Snap.Applies
		}
		var tr transport.Transport = lb.Node(p)
		if rules := tpChaos(sc, p); len(rules) > 0 {
			tr = transport.NewChaos(tr, clock, rules...)
		}
		nodes[p] = tpStart(p, tr, clock,
			rsm.WithJournal(journals[p]), rsm.WithRecovery(rec))
		down[p] = false
	}
	for _, f := range sc.Faults {
		f := f
		p := f.Proc
		if p < 0 || p >= tpReplicas {
			continue
		}
		switch f.Kind {
		case scenario.FaultCrash:
			fired := false
			clock.AfterFunc(amp.Time(f.From), func() {
				if down[p] {
					return
				}
				fired, down[p] = true, true
				nodes[p].RT.Stop()
				lb.SetDown(p, true)
				res.Tracef("crash p%d @%d", p, f.From)
			})
			if f.Until > f.From {
				clock.AfterFunc(amp.Time(f.Until), func() {
					if !fired {
						return
					}
					restart(p)
					res.Tracef("restart p%d @%d applied=%d", p, f.Until, nodes[p].Node.Len())
				})
			}
		case scenario.FaultSnapCrash:
			fired := false
			step := rsm.SnapStep(f.Pct % 4)
			clock.AfterFunc(amp.Time(f.From), func() {
				if down[p] {
					return
				}
				fired, down[p] = true, true
				nodes[p].RT.Do(func(amp.Context) {
					journals[p].SetInstallCrash(step)
					err := nodes[p].Node.Compact()
					journals[p].SetInstallCrash(rsm.SnapStepNone)
					res.Tracef("snapcrash p%d step=%d err=%v", p, step, err)
				})
				nodes[p].RT.Stop()
				lb.SetDown(p, true)
			})
			clock.AfterFunc(amp.Time(f.Until), func() {
				if !fired {
					return
				}
				restart(p)
				res.Tracef("snaprestart p%d @%d base=%d", p, f.Until, appliedBase[p])
			})
		}
	}

	// Client chains, as in the rsm model: a put returns when the
	// client's own replica applies it, and the follow-up read of the
	// key's local state at that point is a valid linearization read.
	total, done := 0, 0
	for c := 0; c < tpClients; c++ {
		total += len(sc.OpsFor(c))
	}
	for c := 0; c < tpClients; c++ {
		c := c
		chain := sc.OpsFor(c)
		if len(chain) == 0 {
			continue
		}
		think := scenario.NewRand(sc.Seed).Derive(uint64(200 + c))
		next := 0
		var waitID any
		var inv *check.Invocation
		var submit func()
		submit = func() {
			if next >= len(chain) {
				return
			}
			op := chain[next]
			key := fmt.Sprintf("k%d", op.Key)
			inv = rec.Call(c, check.KeyedOp{Key: key, Op: check.WriteOp{V: op.Val}})
			nodes[c].RT.Do(func(amp.Context) {
				waitID = nodes[c].Node.Submit(nodes[c].Node.Ctx(), rsm.Command{Op: "put", Key: key, Val: op.Val})
			})
		}
		nodes[c].Node.OnApply = func(e rsm.Entry, _ amp.Time) {
			if inv == nil || e.ID != waitID {
				return
			}
			op := chain[next]
			key := fmt.Sprintf("k%d", op.Key)
			inv.Return(nil)
			inv = nil
			rinv := rec.Call(c, check.KeyedOp{Key: key, Op: check.ReadOp{}})
			rinv.Return(nodes[c].Node.Get(key))
			next++
			done++
			clock.AfterFunc(amp.Time(1+think.Int63n(400)), submit)
		}
		clock.AfterFunc(amp.Time(1+think.Int63n(300)), submit)
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
	for _, op := range h {
		if op.Return == check.Pending {
			res.Pending++
		} else {
			res.Completed++
		}
		res.Tracef("p%d %v @[%d,%d] -> %v", op.Proc, op.Arg, op.Call, op.Return, op.Out)
	}
	// Cross-replica safety: applied orders must agree position-wise. A
	// replica restarted from a snapshot only holds the suffix past the
	// snapshot's coverage, so sequences are compared at absolute apply
	// positions (appliedBase[i] + local index).
	ref := nodes[0].Node.Applied()
	refBase := appliedBase[0]
	for i := 1; i < tpReplicas; i++ {
		got := nodes[i].Node.Applied()
		gotBase := appliedBase[i]
		lo := refBase
		if gotBase > lo {
			lo = gotBase
		}
		hi := refBase + len(ref)
		if h := gotBase + len(got); h < hi {
			hi = h
		}
		for a := lo; a < hi; a++ {
			if got[a-gotBase].ID != ref[a-refBase].ID {
				res.Failf("replicas 0 and %d diverge at slot order %d: %v vs %v",
					i, a, ref[a-refBase].ID, got[a-gotBase].ID)
				return res
			}
		}
	}
	if len(h) == 0 {
		res.Tracef("empty history")
		return res
	}
	spec := check.RegisterArraySpec{}
	lin, err := check.Linearizable(spec, h)
	if err != nil {
		res.Failf("checker error: %v", err)
		return res
	}
	if !lin.OK {
		res.Failf("linearizability violation: %d ops over %d partitions", len(h), lin.Partitions)
		return res
	}
	if err := check.ValidateOrder(spec, h, lin.Order); err != nil {
		res.Failf("witness invalid: %v", err)
		return res
	}
	res.Tracef("linearizable: %d ops over %d partitions", len(h), lin.Partitions)
	return res
}
