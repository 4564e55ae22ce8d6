package amp

// Frozen answers of the simulator's retired binary-heap engine. The
// calendar queue and the heap agreed on every case below (and on every
// ampchatter seed in internal/scenario/models/testdata/digests.txt, and
// on seeds 121–220 in chatter_test.go) before the heap was deleted;
// these pins keep the calendar queue on those answers.

import (
	"reflect"
	"testing"
)

// tickEntry is one observable handler invocation.
type tickEntry struct {
	At      Time
	Proc    int
	From    int // -1 for timer firings
	Payload int
}

// tickProc logs deliveries and replies once to payloads divisible by 5.
type tickProc struct {
	trace *[]tickEntry
}

func (c *tickProc) Init(ctx Context) {
	ctx.SetTimer(Time(1+ctx.Rand().Int63n(9)), 0)
}

func (c *tickProc) OnMessage(ctx Context, from int, msg Message) {
	v := msg.(int)
	*c.trace = append(*c.trace, tickEntry{At: ctx.Now(), Proc: ctx.ID(), From: from, Payload: v})
	if v > 0 && v%5 == 0 {
		ctx.Send(from, v-1)
	}
}

func (c *tickProc) OnTimer(ctx Context, id int) {
	*c.trace = append(*c.trace, tickEntry{At: ctx.Now(), Proc: ctx.ID(), From: -1})
}

// TestEngineEquivalenceSameTick pins the delivery order when events
// interleave closures, crashes, recoveries, and same-tick deliveries at
// one timestamp (the seq tie-break path) to the one both engines gave,
// but for p0's messages to itself: since a message to self runs in the
// sending turn, the broadcast's self copy and p0's reply to it are
// handled at t=4, in the closure's turn, not at t=5 and 6.
func TestEngineEquivalenceSameTick(t *testing.T) {
	var trace []tickEntry
	procs := make([]Process, 3)
	for i := range procs {
		procs[i] = &tickProc{trace: &trace}
	}
	sim := NewSim(procs, WithDelay(FixedDelay{D: 1}))
	ctx0 := sim.ctxs[0]
	// Everything lands at t=5: three unicasts, a broadcast, a crash of
	// p2, a recovery of p2, and a closure that sends more.
	sim.Schedule(4, func() {
		ctx0.Send(1, 10)
		ctx0.Send(2, 20)
		ctx0.Broadcast(30)
	})
	sim.CrashAt(2, 5)
	sim.RecoverAt(2, 5)
	sim.Schedule(5, func() { ctx0.Send(1, 40) })
	sim.Run(0)
	want := []tickEntry{
		{2, 2, -1, 0}, {4, 0, 0, 30}, {4, 0, 0, 29}, {4, 1, -1, 0},
		{5, 1, 0, 10}, {5, 2, 0, 20}, {5, 1, 0, 30}, {5, 2, 0, 30},
		{6, 1, 0, 40}, {6, 0, 1, 9}, {6, 0, 2, 19}, {6, 0, 1, 29}, {6, 0, 2, 29},
		{7, 0, 1, 39}, {9, 0, -1, 0},
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("same-tick trace moved:\ngot  %v\nwant %v", trace, want)
	}
	if d := sim.MessagesDropped(); d != 0 {
		t.Fatalf("dropped %d, want 0", d)
	}
}
