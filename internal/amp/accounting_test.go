package amp

import (
	"fmt"
	"reflect"
	"testing"
)

// These tests pin the simulator's message-accounting semantics (the amp
// mirror of internal/round/accounting_test.go). MessagesSent counts send
// attempts by live processes (a send truncated by an exhausted
// CrashAfterSends budget is not an attempt — the process crashed
// instead); MessagesDropped counts adversary drops at send time plus
// deliveries discarded because the destination was crashed or halted; and
// at quiescence sent == delivered + dropped.

// sink records received payloads.
type sink struct{ got []Message }

func (s *sink) Init(Context)                          {}
func (s *sink) OnMessage(_ Context, _ int, m Message) { s.got = append(s.got, m) }
func (s *sink) OnTimer(Context, int)                  {}

func newSinkSim(n int, opts ...SimOption) (*Sim, []*sink) {
	sinks := make([]*sink, n)
	procs := make([]Process, n)
	for i := range procs {
		sinks[i] = &sink{}
		procs[i] = sinks[i]
	}
	return NewSim(procs, opts...), sinks
}

func checkStats(t *testing.T, sim *Sim, sent, delivered, dropped int) {
	t.Helper()
	if sim.MessagesSent() != sent || sim.MessagesDelivered() != delivered || sim.MessagesDropped() != dropped {
		t.Errorf("sent/delivered/dropped = %d/%d/%d, want %d/%d/%d",
			sim.MessagesSent(), sim.MessagesDelivered(), sim.MessagesDropped(),
			sent, delivered, dropped)
	}
	if sim.QueuedEvents() == 0 && sim.MessagesSent() != sim.MessagesDelivered()+sim.MessagesDropped() {
		t.Errorf("quiescent invariant violated: sent %d != delivered %d + dropped %d",
			sim.MessagesSent(), sim.MessagesDelivered(), sim.MessagesDropped())
	}
}

func TestAccountingPartitionWindow(t *testing.T) {
	// Partition {0,1} | {2,3} during [0, 50): cross-island messages count
	// as sent and dropped; intra-island ones deliver; after the heal at 50
	// everything delivers again.
	sim, sinks := newSinkSim(4,
		WithDelay(FixedDelay{D: 5}),
		WithAdversary(Partition(0, 50, []int{0, 1})))
	ctx0, ctx2 := sim.ctxs[0], sim.ctxs[2]
	sim.Schedule(1, func() {
		ctx0.Send(1, "intra") // delivers
		ctx0.Send(2, "cross") // dropped at send
		ctx2.Send(3, "intra") // delivers (implicit island)
	})
	sim.Schedule(60, func() {
		ctx0.Send(2, "healed") // delivers
	})
	sim.Run(0)
	checkStats(t, sim, 4, 3, 1)
	if len(sinks[2].got) != 1 || sinks[2].got[0] != "healed" {
		t.Errorf("p2 got %v, want [healed]", sinks[2].got)
	}
}

func TestAccountingCrashWindow(t *testing.T) {
	// p1 is down during [10, 30): a message arriving at t=15 is dropped at
	// delivery, one arriving at t=35 is delivered, and p1's own send
	// attempt while crashed is not counted at all.
	sim, sinks := newSinkSim(2, WithDelay(FixedDelay{D: 5}))
	sim.CrashAt(1, 10)
	sim.RecoverAt(1, 30)
	ctx0, ctx1 := sim.ctxs[0], sim.ctxs[1]
	sim.Schedule(10, func() { ctx0.Send(1, "lost") })     // arrives 15: dropped
	sim.Schedule(15, func() { ctx1.Send(0, "silenced") }) // p1 crashed: no send
	sim.Schedule(30, func() { ctx0.Send(1, "kept") })     // arrives 35: delivered
	sim.Run(0)
	checkStats(t, sim, 2, 1, 1)
	if sim.Crashed(1) {
		t.Fatal("p1 must be recovered")
	}
	if len(sinks[1].got) != 1 || sinks[1].got[0] != "kept" {
		t.Errorf("p1 got %v, want [kept]", sinks[1].got)
	}
	if len(sinks[0].got) != 0 {
		t.Errorf("p0 got %v, want none (p1 was crashed when it tried to send)", sinks[0].got)
	}
}

func TestAccountingDropAdversary(t *testing.T) {
	// p = 1.0 drops every message between processes: all sent, and only
	// the sender's own copy, which no adversary judges, delivered.
	sim, sinks := newSinkSim(3, WithAdversary(NewDropWindow(9, 1.0, 0, 0)))
	ctx0 := sim.ctxs[0]
	sim.Schedule(1, func() { ctx0.Broadcast("x") })
	sim.Run(0)
	checkStats(t, sim, 3, 1, 2)
	if len(sinks[0].got) != 1 || len(sinks[1].got)+len(sinks[2].got) != 0 {
		t.Errorf("deliveries wrong: p0=%v p1=%v p2=%v", sinks[0].got, sinks[1].got, sinks[2].got)
	}
}

func TestAccountingHaltedReceiver(t *testing.T) {
	// A message arriving after the destination halted counts as dropped.
	sim, sinks := newSinkSim(2, WithDelay(FixedDelay{D: 5}))
	ctx0, ctx1 := sim.ctxs[0], sim.ctxs[1]
	sim.Schedule(1, func() { ctx1.Send(0, "before") }) // arrives 6
	sim.Schedule(8, func() { ctx0.Halt() })
	sim.Schedule(9, func() { ctx1.Send(0, "after") }) // arrives 14: dropped
	sim.Run(0)
	checkStats(t, sim, 2, 1, 1)
	if len(sinks[0].got) != 1 {
		t.Errorf("p0 got %v, want [before]", sinks[0].got)
	}
}

func TestAccountingSendBudgetTruncation(t *testing.T) {
	// CrashAfterSends(0, 2): of a 4-way broadcast only the first two sends
	// (to p0 itself and to p1) count; the third attempt crashes the sender,
	// so the in-flight self-delivery finds p0 crashed and is dropped, and
	// the remaining destinations see nothing.
	sim, _ := newSinkSim(4)
	ctx0 := sim.ctxs[0]
	sim.CrashAfterSends(0, 2)
	sim.Schedule(1, func() { ctx0.Broadcast("m") })
	sim.Run(0)
	checkStats(t, sim, 2, 1, 1)
	if !sim.Crashed(0) {
		t.Fatal("sender must crash at the third send attempt")
	}
}

func TestAccountingSkewDelaysDelivery(t *testing.T) {
	// SkewLinks adds to the model delay without affecting counts.
	sim, sinks := newSinkSim(2,
		WithDelay(FixedDelay{D: 2}),
		WithAdversary(SkewLinks(3, nil)))
	ctx0 := sim.ctxs[0]
	sim.Schedule(1, func() { ctx0.Send(1, "slow") })
	sim.Run(0)
	checkStats(t, sim, 1, 1, 0)
	if sim.Now() != 6 {
		t.Errorf("delivery at t=%d, want 6 (send at 1, delay 2, skew 3)", sim.Now())
	}
	if len(sinks[1].got) != 1 {
		t.Errorf("p1 got %v", sinks[1].got)
	}
}

func TestAccountingIsolateCutsBothDirections(t *testing.T) {
	// Isolate(1): messages to and from p1 drop; p1→p1 is no channel's
	// and delivers; the other processes communicate normally.
	sim, sinks := newSinkSim(3, WithAdversary(Isolate(0, 0, 1)))
	ctx0, ctx1 := sim.ctxs[0], sim.ctxs[1]
	sim.Schedule(1, func() {
		ctx0.Send(1, "in")   // dropped
		ctx1.Send(0, "out")  // dropped
		ctx1.Send(1, "self") // delivered
		ctx0.Send(2, "ok")   // delivered
	})
	sim.Run(0)
	checkStats(t, sim, 4, 2, 2)
	if len(sinks[2].got) != 1 || len(sinks[0].got) != 0 || !reflect.DeepEqual(sinks[1].got, []Message{"self"}) {
		t.Errorf("deliveries wrong: p0=%v p1=%v p2=%v", sinks[0].got, sinks[1].got, sinks[2].got)
	}
}

// pauser is a sink with timers: Init arms one timer per entry of arm
// (due time by timer id), OnTimer records (time, id), and timer 1
// re-arms itself every period ticks (0 = one-shot).
type pauser struct {
	sink
	arm    map[int]Time
	period Time
	fired  []Time
	ids    []int
}

func (p *pauser) Init(ctx Context) {
	for id := 1; id <= len(p.arm); id++ {
		ctx.SetTimer(p.arm[id], id)
	}
}

func (p *pauser) OnTimer(ctx Context, id int) {
	p.fired = append(p.fired, ctx.Now())
	p.ids = append(p.ids, id)
	if id == 1 && p.period > 0 {
		ctx.SetTimer(p.period, id)
	}
}

// TestRecoverAtSemantics: a crash window is a pause. The timers that
// came due inside it fire at the recovery, in their original due order;
// a message to self sent just before it is delivered in its sending
// turn; the other process's message that arrived inside it stays lost;
// a RecoverAt of a process that is up is a no-op.
func TestRecoverAtSemantics(t *testing.T) {
	p := &pauser{arm: map[int]Time{1: 3, 2: 15, 3: 12, 4: 30}}
	sim := NewSim([]Process{p, &sink{}}, WithDelay(FixedDelay{D: 1}))
	ctx1 := sim.ctxs[1]
	sim.CrashAt(0, 5)
	sim.RecoverAt(0, 20)
	sim.RecoverAt(1, 20)                                    // not crashed: no-op
	sim.Schedule(4, func() { sim.ctxs[0].Send(0, "self") }) // delivered at 4, before the crash
	sim.Schedule(10, func() { ctx1.Send(0, "lost") })
	sim.Schedule(25, func() { ctx1.Send(0, "kept") })
	// At t=19 the two recoveries, the "kept" send and timer 4 are
	// queued; timers 2 and 3 are parked, not queued.
	if sim.Run(19); sim.QueuedEvents() != 4 {
		t.Fatalf("queued %d events during the pause, want 4", sim.QueuedEvents())
	}
	sim.Run(0)
	if sim.Crashed(0) {
		t.Fatal("p0 must be recovered")
	}
	wantAt, wantID := []Time{3, 20, 20, 30}, []int{1, 3, 2, 4}
	if !reflect.DeepEqual(p.fired, wantAt) || !reflect.DeepEqual(p.ids, wantID) {
		t.Fatalf("timers fired at %v ids %v, want at %v ids %v", p.fired, p.ids, wantAt, wantID)
	}
	if !reflect.DeepEqual(p.got, []Message{"self", "kept"}) {
		t.Fatalf("p0 got %v, want [self kept]", p.got)
	}
	checkStats(t, sim, 3, 2, 1)
}

// armer is a pauser that arms timer 9, due 5 ticks on, on every message.
type armer struct{ pauser }

func (a *armer) OnMessage(ctx Context, from int, m Message) {
	a.pauser.OnMessage(ctx, from, m)
	ctx.SetTimer(5, 9)
}

// TestRecoveryDeliveryArmsATimer: two messages to self, sent just before
// a pause, are delivered in their sending turns, and each arms a timer
// that comes due inside the pause. Those fire once each at the
// recovery, with the timer armed at Init, in due order: the recovery
// hands each parked record back to the queue exactly once.
func TestRecoveryDeliveryArmsATimer(t *testing.T) {
	p := &armer{pauser{arm: map[int]Time{1: 12}}}
	sim := NewSim([]Process{p})
	sim.CrashAt(0, 5)
	sim.RecoverAt(0, 20)
	sim.Schedule(4, func() { sim.ctxs[0].Send(0, "a") }) // delivered at 4: timer 9 due at 9
	sim.Schedule(4, func() { sim.ctxs[0].Send(0, "b") })
	sim.Run(0)
	if wantAt, wantID := []Time{20, 20, 20}, []int{9, 9, 1}; !reflect.DeepEqual(p.fired, wantAt) || !reflect.DeepEqual(p.ids, wantID) {
		t.Fatalf("timers fired at %v ids %v, want at %v ids %v", p.fired, p.ids, wantAt, wantID)
	}
}

// TestPeriodicChainSurvivesCrashWindow: a chain re-armed only in its
// own OnTimer outlives a crash window longer than its period — the
// heartbeat of a paused process resumes at its recovery.
func TestPeriodicChainSurvivesCrashWindow(t *testing.T) {
	p := &pauser{arm: map[int]Time{1: 10}, period: 10}
	sim := NewSim([]Process{p})
	sim.CrashAt(0, 15)
	sim.RecoverAt(0, 63)
	sim.Run(100)
	if want := []Time{10, 63, 73, 83, 93}; !reflect.DeepEqual(p.fired, want) {
		t.Fatalf("chain fired at %v, want %v", p.fired, want)
	}
}

// TestAfterIsAProcessTimer: an After closure waits out a pause, dies
// with its incarnation (a kill, then Replace) and with a halt, and
// runs for the successor when the successor arms it.
func TestAfterIsAProcessTimer(t *testing.T) {
	sim, _ := newSinkSim(2)
	var ran []string
	after := func(pid int, d Time, name string) {
		sim.After(pid, d, func() { ran = append(ran, fmt.Sprintf("%s@%d", name, sim.Now())) })
	}
	sim.CrashAt(0, 5)
	sim.RecoverAt(0, 20)
	sim.KillAt(0, 40)
	after(0, 10, "paused")
	after(0, 0, "floor") // d < 1 counts as 1
	after(0, 45, "killed")
	sim.Schedule(50, func() {
		sim.Replace(0, &sink{})
		after(0, 5, "successor")
	})
	sim.Schedule(60, func() { sim.ctxs[1].Halt() })
	after(1, 70, "halted")
	sim.Run(0)
	if want := []string{"floor@1", "paused@20", "successor@55"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("After closures ran %v, want %v", ran, want)
	}
}

// TestKillAtOutlivesRecoverAt kills a process inside a crash-recovery
// window: the window's recovery must not resume the killed incarnation
// (no parked timer fires, no delivery), and only a Replace boots its
// successor.
func TestKillAtOutlivesRecoverAt(t *testing.T) {
	r := &pauser{arm: map[int]Time{1: 8, 2: 22}}
	sim := NewSim([]Process{r, &sink{}}, WithDelay(FixedDelay{D: 1}))
	ctx1 := sim.ctxs[1]
	next := &sink{}
	sim.CrashAt(0, 5)
	sim.KillAt(0, 10)
	sim.RecoverAt(0, 20)
	sim.Schedule(25, func() { ctx1.Send(0, "to the dead") })
	sim.Schedule(30, func() {
		if !sim.Crashed(0) {
			t.Error("RecoverAt resumed a killed process")
		}
		sim.Replace(0, next)
	})
	sim.Schedule(35, func() { ctx1.Send(0, "to the successor") })
	sim.Run(0)
	if len(r.fired) != 0 || len(r.got) != 0 {
		t.Fatalf("killed incarnation ran: timers %v, got %v", r.fired, r.got)
	}
	if sim.Crashed(0) || len(next.got) != 1 {
		t.Fatalf("successor: crashed=%v got %v, want up with one delivery", sim.Crashed(0), next.got)
	}
}

func TestCrashAfterSendsThenRecover(t *testing.T) {
	// A budget-crash followed by recovery resets the budget to unlimited.
	sim, sinks := newSinkSim(3)
	ctx0 := sim.ctxs[0]
	sim.CrashAfterSends(0, 1)
	sim.RecoverAt(0, 10)
	sim.Schedule(1, func() { ctx0.Broadcast("a") })  // 1 send (to self), then crash
	sim.Schedule(20, func() { ctx0.Broadcast("b") }) // recovered: all 3 sends
	sim.Run(0)
	// "a"'s self copy is lost: the crash came in its sending turn;
	// "b"'s three sends all deliver.
	checkStats(t, sim, 4, 3, 1)
	if !reflect.DeepEqual(sinks[0].got, []Message{"b"}) {
		t.Errorf("p0 got %v, want [b]: a process that crashes mid-turn loses its message to self", sinks[0].got)
	}
	if got := len(sinks[1].got) + len(sinks[2].got); got != 2 {
		t.Errorf("p1+p2 deliveries = %d, want 2 (one truncated, one full broadcast)", got)
	}
}
