package node

import (
	"path/filepath"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// idle is a process that does nothing: the waiter tests only need a
// Runtime's event loop.
type idle struct{}

func (idle) Init(amp.Context)                        {}
func (idle) OnMessage(amp.Context, int, amp.Message) {}
func (idle) OnTimer(amp.Context, int)                {}

func idleRuntime() *transport.Runtime {
	lb := transport.NewLoopback(1)
	rt := transport.NewRuntime(lb.Node(0), lb.Clock(), idle{})
	rt.Start()
	return rt
}

func TestWaitersCompleteBeforeRegister(t *testing.T) {
	var w Waiters[int]
	id := rbcast.MsgID{Sender: 1, Seq: 7}
	evaluated := false
	// An apply nobody here waits for (every entry a peer submitted):
	// reported, not remembered, and its result never computed.
	if w.Complete(id, func() int { evaluated = true; return 1 }) {
		t.Fatal("Complete reported a waiter that was never registered")
	}
	if evaluated || w.Len() != 0 {
		t.Fatalf("unregistered completion left a trace: evaluated=%v len=%d", evaluated, w.Len())
	}
	ch := make(chan int, 1)
	w.Register(id, ch)
	select {
	case v := <-ch:
		t.Fatalf("a completion from before Register was delivered: %d", v)
	default:
	}
	if !w.Complete(id, func() int { return 2 }) || <-ch != 2 {
		t.Fatal("registered waiter not completed")
	}
	if w.Len() != 0 || w.Complete(id, func() int { return 3 }) {
		t.Fatal("a waiter completes once")
	}
}

func TestWaitersSubmit(t *testing.T) {
	rt := idleRuntime()
	var w Waiters[string]
	id := rbcast.MsgID{Sender: 0, Seq: 1}

	// The apply arrives from another goroutine once the id is registered.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !w.Complete(id, func() string { return "applied" }) {
			time.Sleep(time.Millisecond)
		}
	}()
	out, err := w.Submit(rt, 5*time.Second, func() rbcast.MsgID { return id })
	if err != nil || out != "applied" {
		t.Fatalf("Submit = %q, %v", out, err)
	}
	<-done

	// A timeout forgets the entry, so a table of timed-out operations
	// does not grow, and the late apply finds nobody.
	late := rbcast.MsgID{Sender: 0, Seq: 2}
	if _, err := w.Submit(rt, 20*time.Millisecond, func() rbcast.MsgID { return late }); err == nil {
		t.Fatal("Submit returned without a completion")
	}
	if w.Len() != 0 {
		t.Fatalf("timed-out entry still registered (%d)", w.Len())
	}
	if w.Complete(late, func() string { return "late" }) {
		t.Fatal("late apply found the timed-out waiter")
	}
}

// TestStartLoopback runs three replicas on node.Start over Loopback (the
// scenario transport model's shape) and checks the wiring Start owns:
// the heartbeat period, a working consensus path, and the stat helpers,
// which have no TCP counters and no journal to report here.
func TestStartLoopback(t *testing.T) {
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	const n = 3
	lb := transport.NewLoopback(n)
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = Start(rsm.NewNode(n), lb.Node(i), lb.Clock(), int64(i+1))
		if reps[i].Node.Omega.Period != HeartbeatPeriod {
			t.Fatalf("replica %d heartbeats every %d ticks", i, reps[i].Node.Omega.Period)
		}
	}
	nd := reps[1].Node
	reps[1].RT.Do(func(amp.Context) { nd.Submit(nd.Ctx(), rsm.Command{Op: "put", Key: "k", Val: 7}) })
	for until := amp.Time(2_000); until <= 100_000 && reps[n-1].Applied() == 0; until += 2_000 {
		lb.Run(until)
	}
	lb.Run(lb.Now() + 2_000) // let the slowest replica deliver too
	for i, r := range reps {
		if r.Applied() != 1 || r.Node.Get("k") != 7 {
			t.Fatalf("replica %d: applied %d, k=%v", i, r.Applied(), r.Node.Get("k"))
		}
	}
	if ns := NetStats(reps...); *ns != (clientrpc.NetStats{}) {
		t.Fatalf("net stats without TCP: %+v", ns)
	}
	if js := JournalStats(reps...); js != nil {
		t.Fatalf("journal stats without a journal: %+v", js)
	}
}

// TestStartTCPRecovers restarts a journaled one-replica group from its
// journal: StartTCP must hand the recovery to build (and only then), so
// the second incarnation comes up with the first one's state.
func TestStartTCPRecovers(t *testing.T) {
	addrs, err := AllocAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Self: 0, Peers: addrs, Journal: filepath.Join(t.TempDir(), "n0.journal"), Seed: 1, CompactRecords: 4}
	start := func() (*Replica, *Waiters[any], int) {
		w, nopts := &Waiters[any]{}, 0
		r, err := StartTCP(sp, transport.NewRealClock(time.Millisecond), func(r *Replica, opts ...rsm.NodeOption) *rsm.Node {
			if r == nil || r.RT != nil {
				t.Errorf("build must see the replica under construction, not yet started: %+v", r)
			}
			nopts = len(opts)
			nd := rsm.NewNode(1, opts...)
			nd.OnApply = func(e rsm.Entry, _ amp.Time) { w.Complete(e.ID, func() any { return nil }) }
			return nd
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, w, nopts
	}

	r, w, fresh := start()
	for i := 0; i < 8; i++ {
		cmd := rsm.Command{Op: "put", Key: "k", Val: i}
		if _, err := w.Submit(r.RT, RPCTimeout, func() rbcast.MsgID { return r.Node.Submit(r.Node.Ctx(), cmd) }); err != nil {
			t.Fatal(err)
		}
	}
	js := JournalStats(r)
	if js == nil || js.LifeRecords == 0 || js.Snapshots == 0 {
		t.Fatalf("journal stats after 8 writes at compact_records=4: %+v", js)
	}
	if r.Addr() != addrs[0] {
		t.Fatalf("listening on %s, want %s", r.Addr(), addrs[0])
	}
	r.Close()

	r, _, recovered := start()
	defer r.Close()
	if recovered != fresh+1 {
		t.Fatalf("build got %d options on a fresh journal and %d on a used one; want exactly WithRecovery more", fresh, recovered)
	}
	var k any
	r.RT.Do(func(amp.Context) { k = r.Node.Get("k") })
	if r.Applied() != 8 || k != 7 {
		t.Fatalf("recovered replica: applied %d, k=%v", r.Applied(), k)
	}
}

// TestNetStatsSumsTCP starts a two-replica group over TCP and checks
// that NetStats reads each replica's TCP counters and sums them.
func TestNetStatsSumsTCP(t *testing.T) {
	addrs, err := AllocAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, 2)
	var w Waiters[any]
	for i := range reps {
		r, err := StartTCP(Spec{Self: i, Peers: addrs, Seed: int64(i + 1)}, transport.NewRealClock(time.Millisecond), func(_ *Replica, opts ...rsm.NodeOption) *rsm.Node {
			nd := rsm.NewNode(2, opts...)
			nd.OnApply = func(e rsm.Entry, _ amp.Time) { w.Complete(e.ID, func() any { return nil }) }
			return nd
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reps[i] = r
	}
	r := reps[0]
	cmd := rsm.Command{Op: "put", Key: "k", Val: 1}
	if _, err := w.Submit(r.RT, RPCTimeout, func() rbcast.MsgID { return r.Node.Submit(r.Node.Ctx(), cmd) }); err != nil {
		t.Fatal(err)
	}
	one, all := NetStats(reps[0]), NetStats(reps...)
	if one.Sent == 0 || one.Delivered == 0 || all.Sent <= one.Sent || all.Delivered <= one.Delivered || all.Shed != 0 {
		t.Fatalf("net stats do not sum over replicas: one %+v, all %+v", one, all)
	}
}
