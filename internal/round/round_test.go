package round

import (
	"testing"

	"distbasics/internal/graph"
)

// echoProc sends its id to all neighbors each round and records what it
// receives; halts after HaltAfter rounds.
type echoProc struct {
	HaltAfter int
	env       Env
	received  map[int]int // sender -> count
}

func (p *echoProc) Init(env Env) {
	p.env = env
	p.received = make(map[int]int)
}

func (p *echoProc) Send(_ int, out Outbox) { out.Broadcast(p.env.ID) }

func (p *echoProc) Compute(r int, in Inbox) bool {
	for k := 0; k < in.Deg(); k++ {
		if in.At(k) != nil {
			p.received[in.Sender(k)]++
		}
	}
	return r >= p.HaltAfter
}

func (p *echoProc) Output() any { return p.received }

func newEchoSystem(t *testing.T, g *graph.Graph, haltAfter int, opts ...Option) (*System, []*echoProc) {
	t.Helper()
	procs := make([]Process, g.N())
	eps := make([]*echoProc, g.N())
	for i := range procs {
		ep := &echoProc{HaltAfter: haltAfter}
		procs[i] = ep
		eps[i] = ep
	}
	sys, err := NewSystem(g, procs, opts...)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys, eps
}

func TestNewSystemSizeMismatch(t *testing.T) {
	g := graph.Ring(4)
	if _, err := NewSystem(g, make([]Process, 3)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestRunNegativeRounds(t *testing.T) {
	g := graph.Ring(3)
	sys, _ := newEchoSystem(t, g, 1)
	if _, err := sys.Run(-1); err == nil {
		t.Fatal("expected error on negative maxRounds")
	}
}

func TestSynchronyProperty(t *testing.T) {
	// On a ring with no adversary, after 1 round each process has received
	// exactly one message from each of its two neighbors.
	g := graph.Ring(5)
	sys, eps := newEchoSystem(t, g, 1)
	res, err := sys.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || !res.AllHalted {
		t.Fatalf("Rounds=%d AllHalted=%v, want 1/true", res.Rounds, res.AllHalted)
	}
	for i, ep := range eps {
		if len(ep.received) != 2 {
			t.Errorf("process %d received from %d senders, want 2", i, len(ep.received))
		}
		for src, cnt := range ep.received {
			if !g.HasEdge(i, src) {
				t.Errorf("process %d received from non-neighbor %d", i, src)
			}
			if cnt != 1 {
				t.Errorf("process %d received %d messages from %d, want 1", i, cnt, src)
			}
		}
	}
	if res.MessagesSent != 10 || res.MessagesDelivered != 10 {
		t.Errorf("sent=%d delivered=%d, want 10/10", res.MessagesSent, res.MessagesDelivered)
	}
}

func TestNonNeighborSendsDropped(t *testing.T) {
	// A process can only talk to its neighbors: a non-neighbor has no
	// slot, so the most a process can address is every slot it was given.
	g := graph.Path(3) // 0-1-2; 0 and 2 are not adjacent
	procs := []Process{&spamProc{}, &sinkProc{}, &sinkProc{}}
	sys, err := NewSystem(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 1 || res.MessagesDelivered != 1 {
		t.Fatalf("sent=%d delivered=%d, want 1/1 (vertex 0 has one neighbor)", res.MessagesSent, res.MessagesDelivered)
	}
	if got := procs[1].(*sinkProc).count; got != 1 {
		t.Fatalf("neighbor received %d messages, want 1", got)
	}
	if got := procs[2].(*sinkProc).count; got != 0 {
		t.Fatalf("non-neighbor received %d messages, want 0", got)
	}
}

// spamProc sends to every slot it has.
type spamProc struct{}

func (p *spamProc) Init(Env)                    {}
func (p *spamProc) Send(_ int, out Outbox)      { out.Broadcast("x") }
func (p *spamProc) Compute(r int, _ Inbox) bool { return r >= 1 }
func (p *spamProc) Output() any                 { return nil }

type sinkProc struct{ count int }

func (p *sinkProc) Init(Env)         {}
func (p *sinkProc) Send(int, Outbox) {}
func (p *sinkProc) Compute(_ int, in Inbox) bool {
	for k := 0; k < in.Deg(); k++ {
		if in.At(k) != nil {
			p.count++
		}
	}
	return true
}
func (p *sinkProc) Output() any { return p.count }

func TestHaltedProcessesStopParticipating(t *testing.T) {
	// Process 0 halts after round 1; processes 1 and 2 run 3 rounds.
	g := graph.Complete(3)
	p0 := &echoProc{HaltAfter: 1}
	p1 := &echoProc{HaltAfter: 3}
	p2 := &echoProc{HaltAfter: 3}
	sys, err := NewSystem(g, []Process{p0, p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 || !res.AllHalted {
		t.Fatalf("Rounds=%d AllHalted=%v", res.Rounds, res.AllHalted)
	}
	// p1 heard from p0 only in round 1.
	if p1.received[0] != 1 {
		t.Errorf("p1 received %d messages from p0, want 1", p1.received[0])
	}
	// p1 heard from p2 every round.
	if p1.received[2] != 3 {
		t.Errorf("p1 received %d messages from p2, want 3", p1.received[2])
	}
	// Halt rounds recorded.
	if res.HaltRound[0] != 1 || res.HaltRound[1] != 3 {
		t.Errorf("HaltRound = %v", res.HaltRound)
	}
}

func TestMaxRoundsExhaustion(t *testing.T) {
	g := graph.Ring(3)
	sys, _ := newEchoSystem(t, g, 100)
	res, err := sys.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllHalted {
		t.Fatal("AllHalted true despite exhausting maxRounds")
	}
	if res.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5", res.Rounds)
	}
	if res.HaltRound[0] != 0 {
		t.Fatalf("HaltRound[0] = %d, want 0 (never halted)", res.HaltRound[0])
	}
}

func TestFullAdversarySuppressesEverything(t *testing.T) {
	g := graph.Complete(4)
	suppressAll := AdversaryFunc(func(_ int, base *graph.Graph, _ []Process) *graph.Digraph {
		return graph.NewDigraph(base.N())
	})
	sys, eps := newEchoSystem(t, g, 2, WithAdversary(suppressAll))
	res, err := sys.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDelivered != 0 {
		t.Fatalf("MessagesDelivered = %d, want 0", res.MessagesDelivered)
	}
	if res.MessagesSent == 0 {
		t.Fatal("MessagesSent = 0, want > 0 (sends attempted)")
	}
	for i, ep := range eps {
		if len(ep.received) != 0 {
			t.Errorf("process %d received messages under adv:∞", i)
		}
	}
}

// quietProc sends itself to every neighbor each round and counts what it
// receives, allocating nothing after Init.
type quietProc struct{ heard int }

func (p *quietProc) Init(Env)               { p.heard = 0 }
func (p *quietProc) Send(_ int, out Outbox) { out.Broadcast(p) }
func (p *quietProc) Compute(_ int, in Inbox) bool {
	for k := 0; k < in.Deg(); k++ {
		if in.At(k) != nil {
			p.heard++
		}
	}
	return false
}
func (p *quietProc) Output() any { return nil }

// TestRunAllocatesNothingPerRound pins the package doc's "zero
// allocations on the hot path": with processes that allocate nothing,
// Run(k)'s allocation count does not grow with k, under None and under
// an adversary that returns one prebuilt digraph.
func TestRunAllocatesNothingPerRound(t *testing.T) {
	g := graph.Ring(256)
	gr := graph.DigraphFromGraph(g)
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"none", nil},
		{"adversary", []Option{WithAdversary(AdversaryFunc(func(int, *graph.Graph, []Process) *graph.Digraph { return gr }))}},
	} {
		procs := make([]Process, g.N())
		for i := range procs {
			procs[i] = &quietProc{}
		}
		sys, err := NewSystem(g, procs, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				res, err := sys.Run(rounds)
				if err != nil || res.Rounds != rounds || res.MessagesDelivered != 2*256*rounds {
					t.Fatalf("Run(%d) = %+v, %v", rounds, res, err)
				}
			})
		}
		if one, fifty := allocs(1), allocs(50); fifty > one {
			t.Errorf("%s: Run(1) allocates %.0f, Run(50) %.0f: a round allocates", c.name, one, fifty)
		}
	}
}
