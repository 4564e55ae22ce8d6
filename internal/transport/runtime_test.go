package transport

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// lbCluster is an rsm cluster of Runtimes straight over Loopback (or
// Loopback + Chaos): the real-transport stack minus the sockets, fully
// deterministic.
type lbCluster struct {
	lb    *Loopback
	nodes []*rsm.Node
	rts   []*Runtime
}

func newLBCluster(t *testing.T, n int, chaos []ChaosRule) *lbCluster {
	t.Helper()
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	c := &lbCluster{lb: NewLoopback(n)}
	clock := c.lb.Clock()
	for i := 0; i < n; i++ {
		var tr Transport = c.lb.Node(i)
		if len(chaos) > 0 {
			rules := make([]ChaosRule, len(chaos))
			copy(rules, chaos)
			for j := range rules {
				rules[j].Seed ^= int64(i+1) << 8 // distinct stream per sender
			}
			tr = NewChaos(tr, clock, rules...)
		}
		nd := rsm.NewNode(n)
		// node.HeartbeatPeriod: every daemon replica heartbeats at 20
		// ticks, and this cluster is that stack minus the sockets.
		nd.Omega.Period = 20
		rt := NewRuntime(tr, clock, nd.Stack, WithRuntimeSeed(int64(i+1)))
		rt.Start()
		c.nodes = append(c.nodes, nd)
		c.rts = append(c.rts, rt)
	}
	return c
}

// submit runs a Submit inside node i's event loop.
func (c *lbCluster) submit(i int, cmd rsm.Command) {
	c.rts[i].Do(func(amp.Context) {
		c.nodes[i].Submit(c.nodes[i].Ctx(), cmd)
	})
}

func TestRuntimeRSMOverLoopback(t *testing.T) {
	c := newLBCluster(t, 3, nil)
	c.submit(1, rsm.Command{Op: "put", Key: "x", Val: 42})
	c.lb.Run(50_000)
	c.submit(0, rsm.Command{Op: "put", Key: "y", Val: "z"})
	c.lb.Run(150_000)
	for i, nd := range c.nodes {
		if nd.Len() != 2 {
			t.Fatalf("node %d applied %d entries, want 2", i, nd.Len())
		}
		if nd.Get("x") != 42 || nd.Get("y") != "z" {
			t.Fatalf("node %d state: x=%v y=%v", i, nd.Get("x"), nd.Get("y"))
		}
	}
	// Mutual consistency: identical applied order everywhere.
	ref := c.nodes[0].Applied()
	for i := 1; i < len(c.nodes); i++ {
		got := c.nodes[i].Applied()
		for j := range ref {
			if got[j].ID != ref[j].ID {
				t.Fatalf("nodes 0 and %d diverge at %d", i, j)
			}
		}
	}
}

func TestRuntimeRSMUnderChaos(t *testing.T) {
	// 20% drops + delays + duplicates: the protocols' own re-sends push
	// the command through, and idempotent apply absorbs the duplicates.
	c := newLBCluster(t, 3, []ChaosRule{
		{Kind: ChaosDrop, Pct: 20, Seed: 101},
		{Kind: ChaosDelay, Pct: 6, Seed: 202},
		{Kind: ChaosDuplicate, Pct: 20, Seed: 303},
	})
	c.submit(2, rsm.Command{Op: "put", Key: "k", Val: 1})
	c.lb.Run(120_000)
	for i, nd := range c.nodes {
		if nd.Len() != 1 {
			t.Fatalf("node %d applied %d entries under chaos, want 1", i, nd.Len())
		}
		if nd.Get("k") != 1 {
			t.Fatalf("node %d k=%v", i, nd.Get("k"))
		}
	}
}

// TestRuntimeDeterministicReplay runs the identical chaos scenario
// twice and requires byte-identical applied sequences and stats — the
// property cmd/basicsfuzz relies on to shrink transport scenarios.
func TestRuntimeDeterministicReplay(t *testing.T) {
	run := func() ([]string, uint64) {
		c := newLBCluster(t, 3, []ChaosRule{
			{Kind: ChaosDrop, Pct: 25, Seed: 7},
			{Kind: ChaosDuplicate, Pct: 15, Seed: 8},
		})
		c.submit(0, rsm.Command{Op: "put", Key: "a", Val: 1})
		c.lb.Run(30_000)
		c.submit(1, rsm.Command{Op: "put", Key: "b", Val: 2})
		c.lb.Run(180_000)
		var trace []string
		for _, nd := range c.nodes {
			for _, e := range nd.Applied() {
				trace = append(trace, e.ID.String())
			}
		}
		return trace, c.lb.Stats().Delivered.Load()
	}
	t1, d1 := run()
	t2, d2 := run()
	if d1 != d2 {
		t.Fatalf("delivery counts differ: %d vs %d", d1, d2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("replay diverges at %d: %s vs %s", i, t1[i], t2[i])
		}
	}
	if len(t1) == 0 {
		t.Fatal("nothing applied")
	}
}

// TestRuntimeStopIsRestartable stops a node's runtime (kill), then
// rebuilds it from a journal and rejoins — the deterministic in-process
// version of the e2e kill -9 demo.
func TestRuntimeStopIsRestartable(t *testing.T) {
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	const n = 3
	lb := NewLoopback(n)
	clock := lb.Clock()
	path := filepath.Join(t.TempDir(), "node2.journal")
	journal, _, err := rsm.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*rsm.Node, n)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		var opts []rsm.NodeOption
		if i == 2 {
			opts = append(opts, rsm.WithJournal(journal))
		}
		nodes[i] = rsm.NewNode(n, opts...)
		nodes[i].Omega.Period = 40
		rts[i] = NewRuntime(lb.Node(i), clock, nodes[i].Stack, WithRuntimeSeed(int64(i+1)))
		rts[i].Start()
	}
	rts[0].Do(func(amp.Context) { nodes[0].Submit(nodes[0].Ctx(), rsm.Command{Op: "put", Key: "pre", Val: 1}) })
	lb.Run(100_000)
	if nodes[2].Len() != 1 {
		t.Fatalf("node 2 applied %d before kill", nodes[2].Len())
	}

	// kill -9 node 2: runtime stops, endpoint goes down, journal closes.
	rts[2].Stop()
	lb.SetDown(2, true)
	journal.Close()
	rts[0].Do(func(amp.Context) { nodes[0].Submit(nodes[0].Ctx(), rsm.Command{Op: "put", Key: "during", Val: 2}) })
	lb.Run(300_000)
	if nodes[0].Len() != 2 || nodes[1].Len() != 2 {
		t.Fatalf("survivors stalled: %d/%d applied", nodes[0].Len(), nodes[1].Len())
	}

	// Restart node 2 from its journal; it must catch up.
	lb.SetDown(2, false)
	journal, rec, err := rsm.OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	restarted := rsm.NewNode(n, rsm.WithJournal(journal), rsm.WithRecovery(rec))
	restarted.Omega.Period = 40
	rt2 := NewRuntime(lb.Node(2), clock, restarted.Stack, WithRuntimeSeed(3))
	rt2.Start()
	if restarted.Len() != 1 || restarted.Get("pre") != 1 {
		t.Fatalf("journal replay: %d applied, pre=%v", restarted.Len(), restarted.Get("pre"))
	}
	rts[0].Do(func(amp.Context) { nodes[0].Submit(nodes[0].Ctx(), rsm.Command{Op: "put", Key: "post", Val: 3}) })
	lb.Run(700_000)
	if restarted.Len() != 3 {
		t.Fatalf("restarted node applied %d entries, want 3 (pre, during, post)", restarted.Len())
	}
	if restarted.Get("during") != 2 || restarted.Get("post") != 3 {
		t.Fatalf("restarted state: during=%v post=%v", restarted.Get("during"), restarted.Get("post"))
	}
	// Its applied order matches the survivors'.
	ref := nodes[0].Applied()
	got := restarted.Applied()
	for i := range ref {
		if ref[i].ID != got[i].ID {
			t.Fatalf("restarted order diverges at %d", i)
		}
	}
}

// eagerTransport is a peer that is already running when this node
// starts: the instant a handler exists it delivers one frame, and
// Handle does not return until that delivery has finished or is
// visibly held up (by the actor mutex, after the fix).
type eagerTransport struct {
	frame     []byte
	delivered chan struct{}
}

func (e *eagerTransport) Self() int              { return 0 }
func (e *eagerTransport) N() int                 { return 2 }
func (e *eagerTransport) Send(int, []byte) error { return nil }
func (e *eagerTransport) Close() error           { return nil }
func (e *eagerTransport) Handle(h Handler) {
	go func() {
		h(1, e.frame)
		close(e.delivered)
	}()
	select {
	case <-e.delivered:
	case <-time.After(200 * time.Millisecond):
	}
}

// orderProc records the order of its upcalls.
type orderProc struct{ calls []string }

func (p *orderProc) Init(amp.Context)                        { p.calls = append(p.calls, "init") }
func (p *orderProc) OnMessage(amp.Context, int, amp.Message) { p.calls = append(p.calls, "msg") }
func (p *orderProc) OnTimer(amp.Context, int)                {}

// TestRuntimeStartInitBeforeFirstFrame pins the start-up race a daemon
// joining a live cluster used to lose about once in 1700 set-ups (a
// panic under onFrame: amp.Stack.OnMessage on a stack whose Init had
// not run): a frame that arrives as soon as the handler is installed
// must be dispatched after Init, and must not be lost.
func TestRuntimeStartInitBeforeFirstFrame(t *testing.T) {
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	frame, err := Codec{}.Encode(rsm.Command{Op: "put", Key: "k", Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &eagerTransport{frame: frame, delivered: make(chan struct{})}
	proc := &orderProc{}
	rt := NewRuntime(tr, NewLoopback(0).Clock(), proc)
	rt.Start()
	select {
	case <-tr.delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("the early frame was never dispatched")
	}
	var calls []string
	rt.Do(func(amp.Context) { calls = append(calls, proc.calls...) })
	if len(calls) != 2 || calls[0] != "init" || calls[1] != "msg" {
		t.Fatalf("upcall order = %v, want [init msg]", calls)
	}
}

// ctxProc exercises one amp.Context behaviour per mode and records what
// it saw, for TestRuntimeContextBehaviours.
type ctxProc struct {
	mode   string
	msgs   []int // senders of the messages handled
	timers int
	last   amp.Time // tick of the latest upcall
	draw   int64
}

func (p *ctxProc) Init(ctx amp.Context) {
	switch p.mode {
	case "broadcast":
		if ctx.ID() == 0 {
			ctx.Broadcast(rsm.Command{Op: "hello"})
		}
	case "halt":
		ctx.SetTimer(2, 1)
		ctx.Broadcast(rsm.Command{Op: "tick"})
	case "rand":
		p.draw = ctx.Rand().Int63()
	}
}

func (p *ctxProc) OnMessage(ctx amp.Context, from int, _ amp.Message) {
	p.msgs = append(p.msgs, from)
	p.last = ctx.Now()
	if p.mode == "halt" && from != ctx.ID() {
		// Keep traffic flowing so a halted process has something to
		// ignore. A reply to itself would run in this very turn, and
		// its reply in the next, forever.
		ctx.Send(from, rsm.Command{Op: "tock"})
	}
}

func (p *ctxProc) OnTimer(ctx amp.Context, id int) {
	p.timers++
	p.last = ctx.Now()
	if p.mode == "halt" && ctx.ID() == 0 && p.timers == 3 {
		ctx.Halt()
		return
	}
	ctx.SetTimer(2, id)
}

// TestRuntimeContextBehaviours pins, on Runtime over Loopback, the
// amp.Context behaviours a protocol relies on and no stack test
// isolates: Broadcast reaches the sender itself, Halt stops every later
// handler and timer of the halting process (and only of it), and
// WithRuntimeSeed gives each process its own Rand stream.
func TestRuntimeContextBehaviours(t *testing.T) {
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	const n = 3
	for _, tc := range []struct {
		mode  string
		check func(t *testing.T, procs []*ctxProc)
	}{
		{"broadcast", func(t *testing.T, procs []*ctxProc) {
			for i, p := range procs {
				if len(p.msgs) != 1 || p.msgs[0] != 0 {
					t.Fatalf("process %d handled messages from %v, want exactly one from 0 (self included)", i, p.msgs)
				}
			}
		}},
		{"halt", func(t *testing.T, procs []*ctxProc) {
			// p0 halts inside its third timer (tick 6); nothing after that
			// reaches it, while p1 and p2 keep running to the horizon.
			if procs[0].timers != 3 || procs[0].last != 6 {
				t.Fatalf("halted process saw %d timers, last upcall at tick %d; want 3 and 6", procs[0].timers, procs[0].last)
			}
			for i := 1; i < n; i++ {
				if procs[i].timers < 100 || procs[i].last < 299 {
					t.Fatalf("Halt leaked to process %d: timers=%d, last upcall at tick %d", i, procs[i].timers, procs[i].last)
				}
			}
		}},
		{"rand", func(t *testing.T, procs []*ctxProc) {
			if procs[0].draw == procs[1].draw || procs[1].draw == procs[2].draw || procs[0].draw == procs[2].draw {
				t.Fatalf("per-process Rand streams collide: %d %d %d", procs[0].draw, procs[1].draw, procs[2].draw)
			}
		}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			lb := NewLoopback(n)
			procs := make([]*ctxProc, n)
			for i := range procs {
				procs[i] = &ctxProc{mode: tc.mode}
				NewRuntime(lb.Node(i), lb.Clock(), procs[i], WithRuntimeSeed(int64(i+1))).Start()
			}
			lb.Run(300)
			tc.check(t, procs)
		})
	}
}

// selfProc records the keys of the messages it handles, in order. A
// message keyed in cascade makes it send that key's follow-up to
// itself; the key haltOn makes it halt.
type selfProc struct {
	got     []string
	cascade map[string]string
	haltOn  string
}

func (p *selfProc) Init(amp.Context)         {}
func (p *selfProc) OnTimer(amp.Context, int) {}
func (p *selfProc) OnMessage(ctx amp.Context, _ int, m amp.Message) {
	key := m.(rsm.Command).Key
	p.got = append(p.got, key)
	if next, ok := p.cascade[key]; ok {
		ctx.Send(ctx.ID(), rsm.Command{Key: next})
	}
	if key == p.haltOn {
		ctx.Halt()
	}
}

// sendRecorder records the frames a Runtime hands to the transport
// below it.
type sendRecorder struct {
	Transport
	frames map[int][][]byte
}

func (s *sendRecorder) Send(to int, frame []byte) error {
	s.frames[to] = append(s.frames[to], frame)
	return s.Transport.Send(to, frame)
}

// newSelfRuntime starts p as process 0 of an n-process Loopback behind
// a sendRecorder, the byte path: the Runtime sees no ValueTransport.
func newSelfRuntime(n int, p *selfProc) (*Loopback, *sendRecorder, *Runtime) {
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	lb := NewLoopback(n)
	rec := &sendRecorder{Transport: lb.Node(0), frames: map[int][][]byte{}}
	rt := NewRuntime(rec, lb.Clock(), p)
	rt.Start()
	return lb, rec, rt
}

// TestRuntimeSelfMessageIsAValue: on the byte path a message to self is
// handled exactly once, in FIFO order, in the sending turn, after the
// sending handler has returned, and never reaches the transport.
func TestRuntimeSelfMessageIsAValue(t *testing.T) {
	p := &selfProc{cascade: map[string]string{"a": "a2"}}
	lb, rec, rt := newSelfRuntime(2, p)
	var during []string
	rt.Do(func(ctx amp.Context) {
		for _, k := range []string{"a", "b", "c"} {
			ctx.Send(0, rsm.Command{Key: k})
		}
		during = append(during, p.got...)
	})
	if want := []string{"a", "b", "c", "a2"}; len(during) != 0 || !slices.Equal(p.got, want) {
		t.Fatalf("handled %v while sending and %v by the end of the turn, want none and %v", during, p.got, want)
	}
	lb.Run(1000)
	if len(p.got) != 4 || lb.Stats().Sent.Load() != 0 || len(rec.frames) != 0 {
		t.Fatalf("after the turn: handled %v, %d Loopback sends, frames %v; want 4 messages and no frames", p.got, lb.Stats().Sent.Load(), rec.frames)
	}
}

// TestRuntimeBroadcastEncodesOnce: a byte-path broadcast hands one
// frame — the same bytes — to each of the n-1 peers' links, and its
// self copy is handled as a value.
func TestRuntimeBroadcastEncodesOnce(t *testing.T) {
	const n = 4
	p := &selfProc{}
	lb, rec, rt := newSelfRuntime(n, p)
	rt.Do(func(ctx amp.Context) { ctx.Broadcast(rsm.Command{Key: "b"}) })
	if got := lb.Stats().Sent.Load(); got != n-1 {
		t.Fatalf("one broadcast added %d to Loopback Sent, want %d", got, n-1)
	}
	first := rec.frames[1]
	for to := 1; to < n; to++ {
		f := rec.frames[to]
		if len(f) != 1 || &f[0][0] != &first[0][0] {
			t.Fatalf("peer %d got frames %v, want the one frame peer 1 got", to, f)
		}
	}
	if len(rec.frames[0]) != 0 || !slices.Equal(p.got, []string{"b"}) {
		t.Fatalf("self: %d frames, handled %v; want no frame and the message once", len(rec.frames[0]), p.got)
	}
}

// TestRuntimeHaltStopsSelfCascade: a process that halts while handling
// a message to self handles nothing after it, queued or later.
func TestRuntimeHaltStopsSelfCascade(t *testing.T) {
	p := &selfProc{cascade: map[string]string{"a": "a2", "b": "b2"}, haltOn: "b"}
	lb, _, rt := newSelfRuntime(2, p)
	rt.Do(func(ctx amp.Context) {
		for _, k := range []string{"a", "b", "c"} {
			ctx.Send(0, rsm.Command{Key: k})
		}
	})
	rt.Do(func(ctx amp.Context) { ctx.Send(0, rsm.Command{Key: "late"}) })
	lb.Run(1000)
	if want := []string{"a", "b"}; !slices.Equal(p.got, want) {
		t.Fatalf("handled %v, want %v and nothing after the halt", p.got, want)
	}
}
