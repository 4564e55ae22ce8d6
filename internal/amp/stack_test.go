package amp

import "testing"

// echoComp replies to "hello" with "world" and counts both; its timers
// re-arm twice.
type echoComp struct {
	tag        string
	hellos     int
	worlds     int
	timerFires int
}

func (e *echoComp) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, "hello")
		ctx.SetTimer(2, 7)
	}
}

func (e *echoComp) OnMessage(ctx Context, from int, msg Message) {
	switch msg {
	case "hello":
		e.hellos++
		ctx.Send(from, "world")
	case "world":
		e.worlds++
	}
}

func (e *echoComp) OnTimer(ctx Context, id int) {
	if id == 7 {
		e.timerFires++
		if e.timerFires < 2 {
			ctx.SetTimer(2, 7)
		}
	}
}

func TestStackIsolatesComponents(t *testing.T) {
	// Two instances of the same component in one stack: each converses
	// only with its own peer instance, and timers do not cross.
	mk := func() (*Stack, *echoComp, *echoComp) {
		a := &echoComp{tag: "a"}
		b := &echoComp{tag: "b"}
		return NewStack(a, b), a, b
	}
	s0, a0, b0 := mk()
	s1, a1, b1 := mk()
	sim := NewSim([]Process{s0, s1})
	sim.Run(0)
	for _, tc := range []struct {
		name                              string
		c                                 *echoComp
		wantHellos, wantWorlds, wantFires int
	}{
		{"a0", a0, 0, 1, 2},
		{"b0", b0, 0, 1, 2},
		{"a1", a1, 1, 0, 0},
		{"b1", b1, 1, 0, 0},
	} {
		if tc.c.hellos != tc.wantHellos || tc.c.worlds != tc.wantWorlds || tc.c.timerFires != tc.wantFires {
			t.Fatalf("%s: hellos=%d worlds=%d fires=%d, want %d/%d/%d",
				tc.name, tc.c.hellos, tc.c.worlds, tc.c.timerFires,
				tc.wantHellos, tc.wantWorlds, tc.wantFires)
		}
	}
}

func TestStackDropsForeignMessages(t *testing.T) {
	s := NewStack(&echoComp{})
	sim := NewSim([]Process{s, &quiet{}})
	// A raw (non-stack) message must be ignored without panicking.
	sim.Schedule(1, func() { sim.ctxs[1].Send(0, "raw") })
	sim.Run(0)
	if got := s.Component(0).(*echoComp).hellos; got != 0 {
		t.Fatalf("foreign message reached component: %d", got)
	}
}
