package transport

import (
	"errors"
	"fmt"
	"testing"

	"distbasics/internal/amp"
)

// reorder is the always-on ChaosDelay rule that gives a scenario
// reordering pressure: Loopback itself delivers every frame in one tick.
var reorder = ChaosRule{Kind: ChaosDelay, Pct: 4, Seed: 22}

// runLoopbackScenario records deliveries as "at:from->to:payload"
// strings for byte-identical determinism comparisons.
func runLoopbackScenario(extraRules []ChaosRule) []string {
	const n = 3
	lb := NewLoopback(n)
	var trace []string
	sends := make([]Transport, n)
	for i := 0; i < n; i++ {
		i := i
		var tr Transport = lb.Node(i)
		if len(extraRules) > 0 {
			tr = NewChaos(tr, lb.Clock(), extraRules...)
		}
		sends[i] = tr
		tr.Handle(func(from int, frame []byte) {
			trace = append(trace, fmt.Sprintf("%d:%d->%d:%s", lb.Now(), from, i, frame))
			// Ping-pong a little traffic to exercise ordering.
			if len(trace) < 30 {
				_ = sends[i].Send(from, []byte(fmt.Sprintf("r%d", len(trace))))
			}
		})
	}
	_ = sends[0].Send(1, []byte("a"))
	_ = sends[0].Send(2, []byte("b"))
	_ = sends[1].Send(2, []byte("c"))
	lb.Run(10_000)
	return trace
}

func TestLoopbackDeterministic(t *testing.T) {
	a := runLoopbackScenario([]ChaosRule{reorder})
	b := runLoopbackScenario([]ChaosRule{reorder})
	if len(a) == 0 {
		t.Fatal("scenario delivered nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestLoopbackOrderedBySendTime(t *testing.T) {
	lb := NewLoopback(2)
	var got []string
	lb.Node(1).Handle(func(from int, frame []byte) { got = append(got, string(frame)) })
	n0 := lb.Node(0)
	_ = n0.Send(1, []byte("first"))
	_ = n0.Send(1, []byte("second"))
	lb.Run(100)
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("delivery order %v", got)
	}
}

func TestLoopbackSetDown(t *testing.T) {
	lb := NewLoopback(2)
	delivered := 0
	lb.Node(1).Handle(func(int, []byte) { delivered++ })

	// Frames addressed to a down node evaporate.
	lb.SetDown(1, true)
	if err := lb.Node(0).Send(1, []byte("lost")); err != nil {
		t.Fatalf("send to down peer must not error at the sender: %v", err)
	}
	lb.Run(100)
	if delivered != 0 {
		t.Fatal("down node received a frame")
	}
	if lb.Stats().Dropped.Load() != 1 {
		t.Fatalf("Dropped = %d, want 1", lb.Stats().Dropped.Load())
	}

	// A down node's own sends error (its process is dead).
	lb.SetDown(0, true)
	if err := lb.Node(0).Send(1, []byte("x")); !errors.Is(err, ErrDown) {
		t.Fatalf("down sender: %v, want ErrDown", err)
	}

	// Restart: back up, handler reattached, traffic flows again.
	lb.SetDown(0, false)
	lb.SetDown(1, false)
	if err := lb.Node(0).Send(1, []byte("hello again")); err != nil {
		t.Fatal(err)
	}
	lb.Run(200)
	if delivered != 1 {
		t.Fatalf("delivered = %d after restart, want 1", delivered)
	}
}

func TestLoopbackClockTimers(t *testing.T) {
	lb := NewLoopback(1)
	clock := lb.Clock()
	var fired []amp.Time
	clock.AfterFunc(10, func() { fired = append(fired, lb.Now()) })
	tm := clock.AfterFunc(5, func() { fired = append(fired, -1) })
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported it had already fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop of the same timer reported true")
	}
	late := clock.AfterFunc(20, func() { fired = append(fired, lb.Now()) })
	lb.Run(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v", fired)
	}
	// The Timer contract: Stop reports whether the callback had not yet
	// fired, so stopping a timer that already ran is false.
	if late.Stop() {
		t.Fatal("Stop of a timer that already fired reported true")
	}
}

// TestLoopbackPinnedOrder fences Loopback's delivery order across
// commits, not only run against run: the trace below is written out, so
// any change to the queue's (time, enqueue-seq) order — how a delivery
// and a timer due on the same tick interleave, what a stopped timer
// leaves behind, where a timer far beyond any bucketed horizon (>32
// ticks out) lands among nearer events — fails here.
func TestLoopbackPinnedOrder(t *testing.T) {
	lb := NewLoopback(2)
	clock := lb.Clock()
	var trace []string
	log := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d:", lb.Now())+fmt.Sprintf(format, args...))
	}
	for i := 0; i < 2; i++ {
		i := i
		lb.Node(i).Handle(func(from int, frame []byte) { log("%d->%d:%s", from, i, frame) })
	}
	send := func(from, to int, s string) { _ = lb.Node(from).Send(to, []byte(s)) }

	// Tick 1 holds, in enqueue order: a timer, a delivery, a timer.
	clock.AfterFunc(1, func() { log("timer-a") })
	send(0, 1, "m1")
	clock.AfterFunc(1, func() {
		log("timer-b")
		send(1, 0, "m2")                              // lands on tick 2 ...
		clock.AfterFunc(1, func() { log("timer-c") }) // ... ahead of this timer
	})
	// A stopped timer between two live ones on tick 2 leaves no trace
	// and does not disturb its neighbours' order.
	clock.AfterFunc(2, func() { log("timer-d") })
	clock.AfterFunc(2, func() { log("stopped") }).Stop()
	clock.AfterFunc(2, func() { log("timer-e") })
	// Far timers, armed before the near ones fire, keep arm order among
	// themselves and tie-break against a delivery sent on tick 39.
	clock.AfterFunc(40, func() { log("far-a") })
	clock.AfterFunc(39, func() {
		log("timer-f")
		send(0, 1, "m3") // lands on tick 40, enqueued after far-a and far-b
	})
	clock.AfterFunc(40, func() { log("far-b") })
	clock.AfterFunc(100, func() { log("far-c") })

	if fired := lb.Run(99); fired != 11 {
		t.Fatalf("Run(99) fired %d events, want 11 (far-c is due later, the stopped timer never counts)", fired)
	}
	lb.Run(200)
	want := []string{
		"1:timer-a", "1:0->1:m1", "1:timer-b",
		"2:timer-d", "2:timer-e", "2:1->0:m2", "2:timer-c",
		"39:timer-f",
		"40:far-a", "40:far-b", "40:0->1:m3",
		"100:far-c",
	}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("delivery order changed:\n got %v\nwant %v", trace, want)
	}
}

func TestChaosDeterministicAndComposable(t *testing.T) {
	rules := []ChaosRule{
		{Kind: ChaosDrop, Pct: 30, Seed: 11},
		reorder,
		{Kind: ChaosDuplicate, Pct: 20, Seed: 33},
	}
	a := runLoopbackScenario(rules)
	b := runLoopbackScenario(rules)
	if len(a) != len(b) {
		t.Fatalf("chaos traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// And chaos actually changes the run relative to the clean network.
	clean := runLoopbackScenario(nil)
	same := len(clean) == len(a)
	if same {
		for i := range a {
			if a[i] != clean[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("chaos rules had no observable effect")
	}
}

func TestChaosDropAll(t *testing.T) {
	lb := NewLoopback(2)
	delivered := 0
	lb.Node(1).Handle(func(int, []byte) { delivered++ })
	c := NewChaos(lb.Node(0), lb.Clock(), ChaosRule{Kind: ChaosDrop, Pct: 100, Seed: 1})
	for i := 0; i < 10; i++ {
		if err := c.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	lb.Run(100)
	if delivered != 0 {
		t.Fatalf("delivered %d frames through a 100%% drop rule", delivered)
	}
	if c.Stats().Dropped.Load() != 10 {
		t.Fatalf("Dropped = %d, want 10", c.Stats().Dropped.Load())
	}
}

func TestChaosPartitionWindow(t *testing.T) {
	lb := NewLoopback(2)
	delivered := 0
	lb.Node(1).Handle(func(int, []byte) { delivered++ })
	// Partition {0} vs {1} during ticks [0, 50).
	c := NewChaos(lb.Node(0), lb.Clock(), ChaosRule{Kind: ChaosPartition, Group: []int{0}, From: 0, Until: 50})
	_ = c.Send(1, []byte("cut"))
	lb.Run(60) // past the heal point
	if delivered != 0 {
		t.Fatal("frame crossed an active partition")
	}
	_ = c.Send(1, []byte("healed"))
	lb.Run(200)
	if delivered != 1 {
		t.Fatalf("delivered = %d after heal, want 1", delivered)
	}
}

func TestChaosDuplicate(t *testing.T) {
	lb := NewLoopback(2)
	delivered := 0
	lb.Node(1).Handle(func(int, []byte) { delivered++ })
	c := NewChaos(lb.Node(0), lb.Clock(), ChaosRule{Kind: ChaosDuplicate, Pct: 100, Seed: 5})
	_ = c.Send(1, []byte("twice"))
	lb.Run(1000)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (original + duplicate)", delivered)
	}
	if c.Stats().Duplicated.Load() != 1 {
		t.Fatalf("Duplicated = %d, want 1", c.Stats().Duplicated.Load())
	}
}
