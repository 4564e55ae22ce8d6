package models

import (
	"distbasics/internal/amp"
	"distbasics/internal/scenario"
)

// AmpChatter runs seeded random chatter — broadcasts, unicasts, bursts,
// self-sends, halts and replies — on the amp simulator across random
// process counts, delay models, adversaries and crash schedules. Its
// oracle shares no code with the simulator: virtual time never runs
// backwards along the delivery trace, and at quiescence every sent
// message was delivered or dropped and no event is left queued (the
// MessagesDropped contract). The answers the retired binary-heap engine
// agreed on are frozen in testdata/digests.txt.
type AmpChatter struct{}

// Name implements scenario.Model.
func (*AmpChatter) Name() string { return "ampchatter" }

// chatterEntry is one observable handler invocation.
type chatterEntry struct {
	At      amp.Time
	Proc    int
	From    int // -1 for timer firings
	Payload int
}

// chatterProc generates deterministic random traffic from its
// per-process Rand: on each of a bounded number of timer firings it
// broadcasts, unicasts, or bursts; every received message is logged;
// payloads divisible by 5 trigger one reply (which cannot cascade). All
// activity is finite, so every scenario quiesces.
type chatterProc struct {
	budget int
	trace  *[]chatterEntry
}

// Init implements amp.Process.
func (c *chatterProc) Init(ctx amp.Context) {
	ctx.SetTimer(amp.Time(1+ctx.Rand().Int63n(9)), 0)
}

// OnMessage implements amp.Process.
func (c *chatterProc) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	v := msg.(int)
	*c.trace = append(*c.trace, chatterEntry{At: ctx.Now(), Proc: ctx.ID(), From: from, Payload: v})
	if v > 0 && v%5 == 0 {
		ctx.Send(from, v-1)
	}
}

// OnTimer implements amp.Process.
func (c *chatterProc) OnTimer(ctx amp.Context, id int) {
	*c.trace = append(*c.trace, chatterEntry{At: ctx.Now(), Proc: ctx.ID(), From: -1})
	if c.budget <= 0 {
		return
	}
	c.budget--
	r := ctx.Rand()
	switch r.Intn(4) {
	case 0:
		ctx.Broadcast(int(r.Int63n(100)))
	case 1:
		ctx.Send(int(r.Int63n(int64(ctx.N()))), int(r.Int63n(100)))
	case 2:
		for i := 0; i < 3; i++ {
			ctx.Send(int(r.Int63n(int64(ctx.N()))), int(r.Int63n(100)))
		}
	case 3:
		if r.Intn(8) == 0 {
			ctx.Halt()
			return
		}
		ctx.Send(ctx.ID(), int(r.Int63n(100)))
	}
	ctx.SetTimer(amp.Time(1+r.Int63n(19)), 0)
}

// Generate implements scenario.Model: process count, traffic budget and
// delay model ride on the seed; the adversary mix, crash schedule, and
// send budgets are explicit faults.
func (*AmpChatter) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 3 + rng.Intn(8)
	sc := &scenario.Scenario{Model: "ampchatter", Seed: seed, Procs: n}
	if rng.Bool() { // lossy window
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultDrop, Pct: 30, From: 0, Until: 40, Sub: rng.Int63(),
		})
	}
	if rng.Bool() { // partition window
		var island []int
		for p := 0; p < n/2; p++ {
			if rng.Bool() {
				island = append(island, p)
			}
		}
		if len(island) > 0 {
			sc.Faults = append(sc.Faults, scenario.Fault{
				Kind: scenario.FaultPartition, From: rng.Int63n(30), Until: 30 + rng.Int63n(60),
				Group: island,
			})
		}
	}
	if rng.Bool() { // crash-recovery
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultCrash, Proc: rng.Intn(n),
			From: 5 + rng.Int63n(30), Until: 40 + rng.Int63n(40),
		})
	}
	if rng.Intn(3) == 0 { // timing skew on even senders
		sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultSkew, Pct: 2})
	}
	if rng.Bool() { // hard crash, no recovery
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultCrash, Proc: rng.Intn(n), From: 10 + rng.Int63n(50),
		})
	}
	if rng.Intn(3) == 0 { // crash mid-broadcast after k sends
		sc.Faults = append(sc.Faults, scenario.Fault{
			Kind: scenario.FaultSendBudget, Proc: rng.Intn(n), Pct: rng.Intn(6),
		})
	}
	return sc
}

// runChatter executes the scenario and returns the global delivery/timer
// trace plus a state snapshot.
func runChatter(sc *scenario.Scenario) ([]chatterEntry, [4]int, []bool, amp.Time) {
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	budget := 3 + cfg.Intn(5)
	var delay amp.DelayModel
	switch cfg.Intn(3) {
	case 0:
		delay = amp.FixedDelay{D: amp.Time(1 + cfg.Int63n(4))}
	case 1:
		delay = amp.UniformDelay{Min: 1, Max: amp.Time(2 + cfg.Int63n(12))}
	default:
		gst := amp.Time(10 + cfg.Int63n(40))
		delay = amp.GSTDelay{GST: gst, BeforeMin: 1, BeforeMax: 60, AfterMin: 1, AfterMax: 4}
	}
	until := amp.Time(0)
	if cfg.Intn(4) == 0 {
		until = amp.Time(20 + cfg.Int63n(60)) // exercise the bounded-Run path
	}

	var trace []chatterEntry
	procs := make([]amp.Process, sc.Procs)
	for i := range procs {
		procs[i] = &chatterProc{budget: budget, trace: &trace}
	}
	// Split faults: send budgets and non-recovering crashes install via
	// Sim methods first, everything else via the shared fault bridge.
	var advFaults []scenario.Fault
	var budgets, crashAt []scenario.Fault
	for _, f := range sc.Faults {
		switch {
		case f.Kind == scenario.FaultSendBudget:
			budgets = append(budgets, f)
		case f.Kind == scenario.FaultCrash && f.Until == 0:
			crashAt = append(crashAt, f)
		default:
			advFaults = append(advFaults, f)
		}
	}
	opts := []amp.SimOption{amp.WithSeed(cfg.Int63()), amp.WithDelay(delay)}
	if advs := ampAdversaries(advFaults); len(advs) > 0 {
		opts = append(opts, amp.WithAdversary(advs...))
	}
	sim := amp.NewSim(procs, opts...)
	for _, f := range crashAt {
		sim.CrashAt(f.Proc, amp.Time(f.From))
	}
	ampProcFaults(sim, advFaults)
	for _, f := range budgets {
		sim.CrashAfterSends(f.Proc, f.Pct)
	}
	if until > 0 {
		sim.Run(until) // split the run to cross the bounded-Run boundary
	}
	sim.Run(0)
	crashed := make([]bool, sc.Procs)
	for i := range crashed {
		crashed[i] = sim.Crashed(i)
	}
	stats := [4]int{sim.MessagesSent(), sim.MessagesDelivered(), sim.MessagesDropped(), sim.QueuedEvents()}
	return trace, stats, crashed, sim.Now()
}

// Run implements scenario.Model.
func (*AmpChatter) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	trace, stats, crashed, now := runChatter(sc)
	res.Tracef("%d entries, sent/delivered/dropped/queued=%v, crashed=%v, now=%d",
		len(trace), stats, crashed, now)
	for i, e := range trace {
		res.Tracef("@%d p%d from=%d payload=%d", e.At, e.Proc, e.From, e.Payload)
		if i > 0 && e.At < trace[i-1].At {
			res.Failf("virtual time ran backwards at entry %d: %d after %d", i, e.At, trace[i-1].At)
		}
	}
	if sent, delivered, dropped, queued := stats[0], stats[1], stats[2], stats[3]; sent != delivered+dropped || queued != 0 {
		res.Failf("books do not balance at quiescence: sent %d, delivered %d + dropped %d, %d events queued",
			sent, delivered, dropped, queued)
	}
	res.Completed = len(trace)
	return res
}
