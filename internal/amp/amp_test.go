package amp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pingPong: process 0 sends "ping", others reply "pong"; counts replies.
type pingPong struct {
	pings, pongs int
	sentAt       Time
	firstPongAt  Time
}

func (p *pingPong) Init(ctx Context) {
	if ctx.ID() == 0 {
		p.sentAt = ctx.Now()
		for i := 1; i < ctx.N(); i++ {
			ctx.Send(i, "ping")
		}
	}
}

func (p *pingPong) OnMessage(ctx Context, from int, msg Message) {
	switch msg {
	case "ping":
		p.pings++
		ctx.Send(from, "pong")
	case "pong":
		if p.pongs == 0 {
			p.firstPongAt = ctx.Now()
		}
		p.pongs++
	}
}

func (p *pingPong) OnTimer(Context, int) {}

func newPingPongSim(n int, opts ...SimOption) (*Sim, []*pingPong) {
	pps := make([]*pingPong, n)
	procs := make([]Process, n)
	for i := range procs {
		pps[i] = &pingPong{}
		procs[i] = pps[i]
	}
	return NewSim(procs, opts...), pps
}

func TestPingPongRoundTripLatency(t *testing.T) {
	// With FixedDelay Δ=5, the first pong arrives at exactly 2Δ = 10.
	sim, pps := newPingPongSim(4, WithDelay(FixedDelay{D: 5}))
	sim.Run(0)
	if pps[0].pongs != 3 {
		t.Fatalf("pongs = %d, want 3", pps[0].pongs)
	}
	if pps[0].firstPongAt != 10 {
		t.Fatalf("round trip = %v, want 2Δ = 10", pps[0].firstPongAt)
	}
	for i := 1; i < 4; i++ {
		if pps[i].pings != 1 {
			t.Fatalf("process %d pings = %d", i, pps[i].pings)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	trace := func(seed int64) (int, Time) {
		sim, pps := newPingPongSim(6, WithSeed(seed), WithDelay(UniformDelay{Min: 1, Max: 9}))
		sim.Run(0)
		return sim.MessagesDelivered(), pps[0].firstPongAt
	}
	d1, t1 := trace(7)
	d2, t2 := trace(7)
	if d1 != d2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", d1, t1, d2, t2)
	}
}

func TestCrashAtStopsSendAndReceive(t *testing.T) {
	sim, pps := newPingPongSim(3, WithDelay(FixedDelay{D: 10}))
	sim.CrashAt(1, 5) // crashes before the ping (sent at 0, arrives at 10) lands
	sim.Run(0)
	if pps[1].pings != 0 {
		t.Fatal("crashed process received a message")
	}
	if pps[0].pongs != 1 {
		t.Fatalf("pongs = %d, want 1 (only process 2 replies)", pps[0].pongs)
	}
	if !sim.Crashed(1) {
		t.Fatal("Crashed(1) = false")
	}
}

// bcaster broadcasts one message from process 0 at init.
type bcaster struct{ got []int }

func (b *bcaster) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Broadcast("m")
	}
}
func (b *bcaster) OnMessage(_ Context, from int, msg Message) {
	if msg == "m" {
		b.got = append(b.got, from)
	}
}
func (b *bcaster) OnTimer(Context, int) {}

func TestBroadcastReachesEveryoneIncludingSelf(t *testing.T) {
	n := 5
	bs := make([]*bcaster, n)
	procs := make([]Process, n)
	for i := range procs {
		bs[i] = &bcaster{}
		procs[i] = bs[i]
	}
	sim := NewSim(procs)
	sim.Run(0)
	for i, b := range bs {
		if len(b.got) != 1 || b.got[0] != 0 {
			t.Fatalf("process %d received %v, want one message from 0", i, b.got)
		}
	}
}

// quiet is an inert process driven entirely by Schedule closures.
type quiet struct{ got []Message }

func (q *quiet) Init(Context)                          {}
func (q *quiet) OnMessage(_ Context, _ int, m Message) { q.got = append(q.got, m) }
func (q *quiet) OnTimer(Context, int)                  {}

func TestCrashDuringScheduledBroadcast(t *testing.T) {
	// §5.1: a process that crashes during its sends reaches only a prefix
	// of destinations. Sends go to processes 1..n-1 so the sender's own
	// crash does not additionally swallow a self-delivery.
	n := 6
	for k := 0; k <= n-1; k++ {
		qs := make([]*quiet, n)
		procs := make([]Process, n)
		for i := range procs {
			qs[i] = &quiet{}
			procs[i] = qs[i]
		}
		sim := NewSim(procs)
		sim.CrashAfterSends(0, k)
		ctx := sim.ctxs[0]
		sim.Schedule(1, func() {
			for i := 1; i < n; i++ {
				ctx.Send(i, "m")
			}
		})
		sim.Run(0)
		received := 0
		for _, q := range qs {
			received += len(q.got)
		}
		if received != k {
			t.Fatalf("budget %d: %d deliveries, want exactly %d (prefix)", k, received, k)
		}
		if k < n-1 && !sim.Crashed(0) {
			t.Fatalf("budget %d: sender should have crashed", k)
		}
	}
}

// timerProc re-arms a timer T times, recording expirations.
type timerProc struct {
	fired []Time
	limit int
}

func (tp *timerProc) Init(ctx Context)                { ctx.SetTimer(3, 1) }
func (tp *timerProc) OnMessage(Context, int, Message) {}
func (tp *timerProc) OnTimer(ctx Context, id int) {
	if id != 1 {
		return
	}
	tp.fired = append(tp.fired, ctx.Now())
	if len(tp.fired) < tp.limit {
		ctx.SetTimer(3, 1)
	}
}

func TestTimers(t *testing.T) {
	tp := &timerProc{limit: 4}
	sim := NewSim([]Process{tp})
	sim.Run(0)
	want := []Time{3, 6, 9, 12}
	if len(tp.fired) != len(want) {
		t.Fatalf("fired %v, want %v", tp.fired, want)
	}
	for i := range want {
		if tp.fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", tp.fired, want)
		}
	}
}

func TestHaltStopsDelivery(t *testing.T) {
	q := &quiet{}
	sim := NewSim([]Process{q, &quiet{}})
	ctx1 := sim.ctxs[1]
	sim.Schedule(1, func() { ctx1.Send(0, "a") }) // delivered at t=2
	sim.Schedule(3, func() { sim.ctxs[0].Halt() })
	sim.Schedule(4, func() { ctx1.Send(0, "b") }) // dropped: halted at t=3
	sim.Run(0)
	if len(q.got) != 1 || q.got[0] != "a" {
		t.Fatalf("got %v, want [a] (halted before b)", q.got)
	}
}

func TestRunUntilBounds(t *testing.T) {
	tp := &timerProc{limit: 100}
	sim := NewSim([]Process{tp})
	sim.Run(10)
	if len(tp.fired) != 3 { // t=3,6,9
		t.Fatalf("fired %d times, want 3 by t=10", len(tp.fired))
	}
	if sim.Now() > 10 {
		t.Fatalf("Now = %v, want <= 10", sim.Now())
	}
	sim.Run(0) // drain
	if len(tp.fired) != 100 {
		t.Fatalf("fired %d, want 100 after drain", len(tp.fired))
	}
}

func TestGSTDelayBounds(t *testing.T) {
	g := GSTDelay{GST: 100, BeforeMin: 50, BeforeMax: 200, AfterMin: 1, AfterMax: 5}
	f := func(seed int64, beforeGST bool) bool {
		sim, _ := newPingPongSim(2, WithSeed(seed))
		_ = sim
		at := Time(150)
		if beforeGST {
			at = 50
		}
		d := g.Delay(0, 1, at, newTestRand(seed))
		if beforeGST {
			return d >= 50 && d <= 200
		}
		return d >= 1 && d <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayModelsFloorAtOne(t *testing.T) {
	if d := (FixedDelay{D: 0}).Delay(0, 1, 0, nil); d != 1 {
		t.Fatalf("FixedDelay{0} = %v, want 1", d)
	}
	if d := (UniformDelay{Min: -5, Max: -1}).Delay(0, 1, 0, newTestRand(1)); d < 1 {
		t.Fatalf("UniformDelay negative = %v", d)
	}
}

func TestDropRule(t *testing.T) {
	q0, q1 := &quiet{}, &quiet{}
	sim := NewSim([]Process{q0, q1}, WithAdversary(AdversaryFunc(func(src, dst int, _ Time) Verdict {
		return Verdict{Drop: dst == 1} // partition process 1 away
	})))
	sim.Schedule(1, func() { sim.ctxs[0].Send(1, "x") })
	sim.Schedule(1, func() { sim.ctxs[1].Send(0, "y") })
	sim.Run(0)
	if len(q1.got) != 0 {
		t.Fatal("partitioned process received a message")
	}
	if len(q0.got) != 1 {
		t.Fatalf("process 0 got %v, want [y]", q0.got)
	}
}

func TestMessageStats(t *testing.T) {
	sim, _ := newPingPongSim(3)
	sim.Run(0)
	// 2 pings + 2 pongs.
	if sim.MessagesSent() != 4 || sim.MessagesDelivered() != 4 {
		t.Fatalf("sent=%d delivered=%d, want 4/4", sim.MessagesSent(), sim.MessagesDelivered())
	}
}

// haltingProc halts itself upon its first message; later messages and
// timers must not be delivered.
type haltingProc struct {
	msgs   int
	timers int
}

func (h *haltingProc) Init(ctx Context) {
	ctx.SetTimer(50, 1)
	ctx.Send(ctx.ID(), "one")
	ctx.Send(ctx.ID(), "two")
}

func (h *haltingProc) OnMessage(ctx Context, _ int, _ Message) {
	h.msgs++
	ctx.Halt()
}

func (h *haltingProc) OnTimer(Context, int) { /* must never fire after halt */ }

func TestSimHaltStopsDelivery(t *testing.T) {
	p := &haltingProc{}
	sim := NewSim([]Process{p}, WithDelay(FixedDelay{D: 1}))
	sim.Run(0)
	if p.msgs != 1 {
		t.Fatalf("halted process handled %d messages, want 1", p.msgs)
	}
}

func TestSimAccessors(t *testing.T) {
	p := &haltingProc{}
	sim := NewSim([]Process{p, &haltingProc{}})
	if sim.N() != 2 {
		t.Fatalf("N = %d", sim.N())
	}
	sim.Run(0)
	if sim.MessagesSent() == 0 || sim.MessagesDelivered() == 0 {
		t.Fatal("message counters must advance")
	}
	if sim.Now() <= 0 {
		t.Fatal("virtual time must advance")
	}
}

// randomDrawProc exercises ctx.Rand determinism across sims with the
// same seed.
type randomDrawProc struct{ draw int64 }

func (r *randomDrawProc) Init(ctx Context)                { r.draw = ctx.Rand().Int63() }
func (r *randomDrawProc) OnMessage(Context, int, Message) {}
func (r *randomDrawProc) OnTimer(Context, int)            {}

func TestSimPerProcessRandDeterministic(t *testing.T) {
	run := func() []int64 {
		a, b := &randomDrawProc{}, &randomDrawProc{}
		sim := NewSim([]Process{a, b}, WithSeed(77))
		sim.Run(0)
		return []int64{a.draw, b.draw}
	}
	x, y := run(), run()
	if x[0] != y[0] || x[1] != y[1] {
		t.Fatal("same seed must reproduce per-process randomness")
	}
	if x[0] == x[1] {
		t.Fatal("distinct processes must draw from independent sources")
	}
}

// clockProc re-arms a 50-tick timer and records, at each firing, the
// global time and its own clock.
type clockProc struct{ global, local []Time }

func (tp *clockProc) Init(ctx Context)                { ctx.SetTimer(50, 0) }
func (tp *clockProc) OnMessage(Context, int, Message) {}
func (tp *clockProc) OnTimer(ctx Context, _ int) {
	tp.local = append(tp.local, ctx.Now())
	tp.global = append(tp.global, ctx.(*simCtx).sim.Now())
	ctx.SetTimer(50, 0)
}

// TestClockRateWindow pins the clock-rate fault: inside the window p0's
// clock and timers run at 90% (p1's at 110%) of global time, the local
// clock is continuous at the edges and keeps the offset afterwards, and
// a process without a window reads global time.
func TestClockRateWindow(t *testing.T) {
	slow, fast, plain := &clockProc{}, &clockProc{}, &clockProc{}
	s := NewSim([]Process{slow, fast, plain})
	s.ClockRate(0, 100, 300, -10)
	s.ClockRate(1, 100, 300, 10)
	s.Run(500)
	// Inside the window a 50-tick timer takes 56 global ticks at 90%
	// and 46 at 110%; the one that straddles an edge takes between.
	wantSlow := []Time{50, 100, 156, 212, 267, 320, 370, 420, 470}
	wantFast := []Time{50, 100, 146, 191, 237, 282, 330, 380, 430, 480}
	if fmt.Sprint(slow.global) != fmt.Sprint(wantSlow) {
		t.Errorf("slow clock's timers fired at %v, want %v", slow.global, wantSlow)
	}
	if fmt.Sprint(fast.global) != fmt.Sprint(wantFast) {
		t.Errorf("fast clock's timers fired at %v, want %v", fast.global, wantFast)
	}
	for i, l := range slow.local {
		if want := Time(50 * (i + 1)); l != want {
			t.Errorf("slow clock read %d at its timer %d, want %d (timers count local ticks)", l, i, want)
		}
	}
	for at, want := range map[Time][3]Time{100: {100, 100, 100}, 200: {190, 210, 200}, 300: {280, 320, 300}, 400: {380, 420, 400}} {
		var got [3]Time
		for p := range got {
			got[p] = s.local(p, at)
		}
		if got != want {
			t.Errorf("clocks at global %d read %v, want %v", at, got, want)
		}
	}
	for g := Time(0); g < 400; g++ {
		if d := s.local(0, g+1) - s.local(0, g); d < 0 || d > 1 {
			t.Fatalf("slow clock steps %d at global %d: not continuous", d, g)
		}
	}
	if fmt.Sprint(plain.global) != fmt.Sprint(plain.local) {
		t.Errorf("a process without a window reads %v, global %v", plain.local, plain.global)
	}
}

func TestClockRateRejectsOverlapAndStop(t *testing.T) {
	for _, c := range []struct {
		from, until Time
		pct         int
	}{{150, 250, 5}, {50, 101, 5}, {400, 500, -100}, {400, 400, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window [%d,%d) at %d%% accepted", c.from, c.until, c.pct)
				}
			}()
			s := NewSim([]Process{&quiet{}})
			s.ClockRate(0, 100, 300, -10)
			s.ClockRate(0, c.from, c.until, c.pct)
		}()
	}
}
