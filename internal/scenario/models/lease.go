package models

import (
	"fmt"
	"math/rand"
	"sort"

	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/kv"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// Lease is the schedule-fuzz model of the kv read lease, the one safety
// claim here that rests on timing. Three replicas run the Host's lease
// options (kv.LeaseOptions) at the Host's heartbeat period
// (kv.HostHeartbeatPeriod) on amp.Sim, in sim ticks finer than a daemon's
// when the TTL is short (hostLease), and every get makes the decision
// basicskv makes (kv.LeaseRead): served from local state while the
// replica holds the lease on its own clock, else ordered through
// consensus and read at its local apply. Each replica has a writer
// client (puts of values unique per key) and a reader client (gets
// only), and the oracle is per-key linearizability.
//
// Each seed silences a victim, usually the initial leader 0, at a time
// C: a partition of it, an outbound cut of its links (to both
// followers at once, or to one and then the other, so their promises
// lapse at different times), or a pause. Its followers elect a rival,
// which ballots the tick the victim's grants lapse. Most seeds also run
// one clock at up to leaseSkew% off global time (amp.Sim.ClockRate)
// across the fault, and the victim's reader polls it from 0.6 to 1.4
// TTLs after C: a holder whose belief outlives its granters' promises
// serves a stale value there, which is what the margin must prevent. A
// paused or partitioned leader that its followers elect again once it
// is back is what rsm.Node.HoldsLease's catch-up barrier is for. Every
// window scales with the TTL the model runs (hostLease).
type Lease struct {
	// Margin, when set, replaces the Host's lease margin with
	// Margin(ttl): the mutation test runs 0, the margin sweep each value
	// it publishes.
	Margin func(ttl amp.Time) amp.Time
	// Skew, when set, makes every seed's clock fault the worst case at
	// that skew: the victim's clock runs Skew% slow.
	Skew int
}

const (
	leaseReplicas = 3
	leaseKeys     = 2
	leaseSkew     = 10 // the largest |Pct| a generated clock window draws
	leaseChunk    = 1_000
	leaseHorizon  = 20_000
	// leaseResolution is the fewest sim ticks the model resolves one TTL
	// into. Network delays are 2–4 sim ticks and a rival's first commit
	// comes about four of them after the lapse it waits for, so that
	// latency alone covers (its ticks)/TTL of clock skew: at one sim tick
	// per daemon tick and a 100-tick TTL, margin 0 held to 10% skew, and
	// a missing margin hid behind the model's own delays. The generator's
	// windows are written in ticks of a leaseResolution-tick TTL.
	leaseResolution = 250
)

// hostLease is the lease the model runs: kv.LeaseOptions' TTL and margin
// and its heartbeat period, counted in sim ticks of 1/k daemon tick with
// k = ceil(leaseResolution / TTL). The rsm's own timers (the mux pace,
// the sync period) stay in sim ticks, so consensus runs faster against
// the lease than in the daemons: the harsher side for a read lease.
var hostLease = func() (l struct{ ttl, margin, period amp.Time }) {
	d := rsm.NewNode(leaseReplicas, kv.LeaseOptions()...).Omega
	k := (leaseResolution + d.LeaseTTL - 1) / d.LeaseTTL
	l.ttl, l.margin, l.period = k*d.LeaseTTL, k*d.LeaseMargin, k*kv.HostHeartbeatPeriod
	return l
}()

// Name implements scenario.Model.
func (*Lease) Name() string { return "lease" }

// Generate implements scenario.Model. An op's Val is the tick its client
// issues it at (later if the client's previous op is still running); a
// put writes Val*leaseReplicas + Proc, unique per key.
func (m *Lease) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "lease", Seed: seed, Procs: leaseReplicas}
	victim := 0
	if rng.Intn(4) == 0 {
		victim = rng.Intn(leaseReplicas)
	}
	others := make([]int, 0, leaseReplicas-1)
	for p := 0; p < leaseReplicas; p++ {
		if p != victim {
			others = append(others, p)
		}
	}
	// w(n) is n ticks of a leaseResolution-tick TTL, scaled to the TTL run.
	w := func(n int64) int64 { return (n*int64(hostLease.ttl) + leaseResolution/2) / leaseResolution }
	c := w(300) + rng.Int63n(w(1_200))
	heal := c + w(300) + rng.Int63n(w(900))
	switch rng.Intn(4) {
	case 0:
		sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultPartition, From: c, Until: heal, Group: []int{victim}})
	case 1:
		sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultCut, Proc: victim, From: c, Until: heal, Group: others})
	case 2: // one follower stops hearing the victim before the other
		first := rng.Intn(len(others))
		sc.Faults = append(sc.Faults,
			scenario.Fault{Kind: scenario.FaultCut, Proc: victim, From: c, Until: heal, Group: []int{others[first]}},
			scenario.Fault{Kind: scenario.FaultCut, Proc: victim, From: c + w(20) + rng.Int63n(w(80)), Until: heal, Group: []int{others[1-first]}})
	case 3:
		sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultCrash, Proc: victim, From: c, Until: c + w(150) + rng.Int63n(w(450))})
	}
	if m.Skew != 0 || rng.Intn(4) != 0 {
		f := scenario.Fault{Kind: scenario.FaultClock, Proc: rng.Intn(leaseReplicas),
			From: max(0, c-rng.Int63n(w(400))), Until: c + w(300) + rng.Int63n(w(900)), Pct: 1 + rng.Intn(leaseSkew)}
		if rng.Intn(2) == 0 {
			f.Pct = -f.Pct
		}
		if m.Skew != 0 {
			f.Proc, f.Pct = victim, -m.Skew
		}
		sc.Faults = append(sc.Faults, f)
	}
	// The checker takes at most check.MaxOps ops a key: the victim's
	// polls go first, and the background ops give way to them.
	var perKey [leaseKeys]int
	add := func(op scenario.Op) {
		if perKey[op.Key] < check.MaxOps {
			perKey[op.Key]++
			sc.Ops = append(sc.Ops, op)
		}
	}
	for i, t := 0, c+w(150); t < c+w(350); i, t = i+1, t+w(3)+rng.Int63n(w(5)) {
		add(scenario.Op{Proc: victim, Kind: scenario.OpGet, Key: i % leaseKeys, Val: int(t)})
	}
	for p := 0; p < leaseReplicas; p++ {
		for t := w(50) + rng.Int63n(w(100)); t < c+w(900); t += w(100) + rng.Int63n(w(200)) {
			add(scenario.Op{Proc: p, Kind: scenario.OpPut, Key: rng.Intn(leaseKeys), Val: int(t)})
		}
		for t := w(80) + rng.Int63n(w(200)); t < c+w(900); t += w(150) + rng.Int63n(w(250)) {
			add(scenario.Op{Proc: p, Kind: scenario.OpGet, Key: rng.Intn(leaseKeys), Val: int(t)})
		}
	}
	return sc
}

// Run implements scenario.Model.
func (m *Lease) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	hist := check.NewRecorder()

	nodes := make([]*rsm.Node, leaseReplicas)
	procs := make([]amp.Process, leaseReplicas)
	waiting := make([]map[rbcast.MsgID]func(), leaseReplicas)
	for j := range nodes {
		nd := rsm.NewNode(leaseReplicas, kv.LeaseOptions()...)
		nd.Omega.Period, nd.Omega.LeaseTTL, nd.Omega.LeaseMargin = hostLease.period, hostLease.ttl, hostLease.margin
		if m.Margin != nil {
			nd.Omega.LeaseMargin = m.Margin(nd.Omega.LeaseTTL)
		}
		waiting[j] = make(map[rbcast.MsgID]func())
		nd.OnApply = func(e rsm.Entry, _ amp.Time) {
			if done, ok := waiting[j][e.ID]; ok {
				delete(waiting[j], e.ID)
				done()
			}
		}
		nodes[j], procs[j] = nd, nd.Stack
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(selfFirst{amp.UniformDelay{Min: 2, Max: amp.Time(2 + cfg.Int63n(3))}}),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	// One writer (history process p) and one reader (leaseReplicas+p)
	// per replica p, each running its ops one at a time in due order.
	var leaseReads, quorumReads, total, done int
	for p := 0; p < leaseReplicas; p++ {
		for r, kind := range []scenario.OpKind{scenario.OpPut, scenario.OpGet} {
			var ops []scenario.Op
			for _, op := range sc.OpsFor(p) {
				if op.Kind == kind {
					ops = append(ops, op)
				}
			}
			sort.SliceStable(ops, func(a, b int) bool { return ops[a].Val < ops[b].Val })
			total += len(ops)
			proc, nd := p+r*leaseReplicas, nodes[p]
			var next func()
			next = func() {
				if len(ops) == 0 {
					return
				}
				if sim.Crashed(p) { // a paused replica serves nobody
					sim.Schedule(sim.Now()+10, next)
					return
				}
				op := ops[0]
				ops = ops[1:]
				finish := func() {
					done++
					if len(ops) > 0 {
						sim.Schedule(amp.Time(ops[0].Val), next)
					}
				}
				ctx, key := nd.Ctx(), fmt.Sprintf("k%d", op.Key)
				if kind == scenario.OpPut {
					val := op.Val*leaseReplicas + p
					inv := hist.Call(proc, check.KeyedOp{Key: key, Op: check.WriteOp{V: val}})
					waiting[p][nd.Submit(ctx, rsm.Command{Op: "put", Key: key, Val: val})] = func() { inv.Return(nil); finish() }
					return
				}
				inv := hist.Call(proc, check.KeyedOp{Key: key, Op: check.ReadOp{}})
				if v, ok := kv.LeaseRead(ctx, nd, key); ok {
					leaseReads++
					inv.Return(v)
					finish()
					return
				}
				quorumReads++
				waiting[p][nd.Submit(ctx, rsm.Command{Op: "get", Key: key})] = func() { inv.Return(nd.Get(key)); finish() }
			}
			if len(ops) > 0 {
				sim.Schedule(amp.Time(ops[0].Val), next)
			}
		}
	}
	ampProcFaults(sim, sc.Faults)
	var quiet amp.Time
	for _, f := range sc.Faults {
		quiet = max(quiet, amp.Time(f.Until))
	}
	for until := amp.Time(leaseChunk); until <= leaseHorizon; until += leaseChunk {
		sim.Run(until)
		if done == total && until >= quiet {
			break
		}
	}

	h := hist.History()
	traceHistory(res, h)
	for j, nd := range nodes {
		res.Tracef("replica %d applied %d, leader %d", j, nd.Len(), nd.Omega.Leader())
	}
	res.Tracef("%d of %d ops returned; gets: %d lease, %d consensus", done, total, leaseReads, quorumReads)
	return linearizeKeyed(res, h)
}

// selfFirst delivers a process's message to itself in one tick and any
// other in at least two. amp.Sim sends a self copy through the network
// like any other, but the daemons' transport.Runtime handles it in the
// sending turn, before a peer can react to the same broadcast: a leader
// applies its own decision before a follower can ack it, and a lease
// read that follows the ack sees it. Without that order the model would
// charge the lease with a race the deployed runtime does not have.
type selfFirst struct{ amp.UniformDelay }

// Delay implements amp.DelayModel.
func (d selfFirst) Delay(src, dst int, at amp.Time, rng *rand.Rand) amp.Time {
	if src == dst {
		return 1
	}
	return d.UniformDelay.Delay(src, dst, at, rng)
}
