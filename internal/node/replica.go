package node

import (
	"fmt"
	"sync"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// HeartbeatPeriod is the Ω heartbeat period, in ticks, of every replica
// Start brings up, and of a StartTCP replica whose Spec states none. Ω
// suspects a peer after three silent periods (fd.Detector's initial
// timeout) at the first suspicion sweep after them, so a crash is
// noticed 60–80 ticks (120–160 ms at the default 2 ms tick) after the
// peer's last heartbeat, and the period also sets what the heartbeats
// cost: in a settled, idle group of three the leader sends a heartbeat
// to each follower every period, and each follower a heartbeat to each
// peer, plus a lease grant to the leader where a read lease runs
// (TestIdleFramesPerPeriod). basicsd and basicsjobd run it; jobq's
// worker grace is a stated time. kv states its own, shorter period
// (kv.HostHeartbeatPeriod), which its read lease and so its failover
// are sized against: under load, five basicsjobd processes on two
// cores stall 45–60 ms at once, and at 10 ticks their 60 ms timeout
// falsely suspected live peers. Suspicion steers the protocols only:
// the transport sends to a suspected peer as to any other.
const HeartbeatPeriod amp.Time = 20

// RPCTimeout bounds one consensus round-trip from the client's side.
// Long enough to ride out a chaos window plus leader re-election, short
// enough that an e2e driver can mark the op pending and move on.
const RPCTimeout = 15 * time.Second

// Replica is one running rsm replica: the state machine's Node under a
// Runtime straight over the transport it was started on.
type Replica struct {
	Node *rsm.Node
	RT   *transport.Runtime

	tcp     *transport.TCP   // nil off StartTCP
	journal *rsm.FileJournal // nil without persistence
}

// Start runs nd over tr in a Runtime seeded with seed, at
// HeartbeatPeriod. nd must be fully hooked up (OnApply, subscribers)
// before the call: peers may deliver from the moment it returns.
func Start(nd *rsm.Node, tr transport.Transport, clock transport.Clock, seed int64) *Replica {
	r := &Replica{}
	r.start(nd, tr, clock, seed, HeartbeatPeriod)
	return r
}

// start fills r in before the runtime starts, so a hook that captured
// r (see StartTCP) finds it complete when the first event runs.
func (r *Replica) start(nd *rsm.Node, tr transport.Transport, clock transport.Clock, seed int64, period amp.Time) {
	nd.Omega.Period = period
	r.Node = nd
	r.RT = transport.NewRuntime(tr, clock, nd.Stack, transport.WithRuntimeSeed(seed))
	r.RT.Start()
}

// Spec places one replica of a localhost TCP replica group.
type Spec struct {
	Self    int
	Peers   []string              // the group's transport addresses, by replica id
	Journal string                // journal path; "" = no persistence
	Seed    int64                 // the Runtime's seed
	Chaos   []transport.ChaosRule // outbound fault schedule, usually none
	// CompactRecords is the journal's auto-compaction record threshold;
	// 0 = rsm.DefaultCompactRecords (see Config.CompactRecords).
	CompactRecords int64
	// Period is Ω's heartbeat period in ticks; 0 = HeartbeatPeriod.
	Period amp.Time
}

// StartTCP brings a replica up the way every daemon does: open the
// journal and turn what it recovered into rsm options (journal,
// compaction thresholds, and recovery only when there is something to
// recover), hand those to build — which constructs the state machine's
// rsm.Node around them (rsm.NewNode, jobq.New) and attaches its apply
// hooks — then listen, wrap in Chaos if the file schedules faults, and
// start. build also receives the Replica under construction, empty
// until the runtime starts, for hooks that must re-enter the event loop
// (r.RT.Do) once events flow.
func StartTCP(sp Spec, clock transport.Clock, build func(r *Replica, opts ...rsm.NodeOption) *rsm.Node) (*Replica, error) {
	// Wire registration must precede both transport traffic and journal
	// replay; a state machine with wire types of its own registers them
	// before calling.
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	var opts []rsm.NodeOption
	var journal *rsm.FileJournal
	if sp.Journal != "" {
		j, rec, err := rsm.OpenFileJournal(sp.Journal)
		if err != nil {
			return nil, err
		}
		journal = j
		records := sp.CompactRecords
		if records == 0 {
			records = rsm.DefaultCompactRecords
		}
		opts = append(opts, rsm.WithJournal(j), rsm.WithCompaction(records, rsm.DefaultCompactBytes))
		if rec.Snap != nil || rec.NextSeq > 0 || len(rec.Accepts) > 0 || len(rec.Decides) > 0 {
			opts = append(opts, rsm.WithRecovery(rec))
		}
	}
	r := &Replica{journal: journal}
	nd := build(r, opts...)
	tcp, err := transport.NewTCP(sp.Self, sp.Peers, transport.TCPOptions{})
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, err
	}
	var tr transport.Transport = tcp
	if len(sp.Chaos) > 0 {
		tr = transport.NewChaos(tr, clock, sp.Chaos...)
	}
	r.tcp = tcp
	period := sp.Period
	if period == 0 {
		period = HeartbeatPeriod
	}
	r.start(nd, tr, clock, sp.Seed, period)
	return r, nil
}

// Start brings up node id of the cluster c describes, on the runtime
// seed every one-group daemon uses.
func (c *Config) Start(id int, clock transport.Clock, build func(r *Replica, opts ...rsm.NodeOption) *rsm.Node) (*Replica, error) {
	if id < 0 || id >= len(c.Peers) {
		return nil, fmt.Errorf("node id %d out of range [0,%d)", id, len(c.Peers))
	}
	return StartTCP(Spec{
		Self: id, Peers: c.Peers, Journal: c.Journals[id],
		Seed: int64(id + 1), Chaos: c.ChaosRules(id), CompactRecords: c.CompactRecords,
	}, clock, build)
}

// Addr returns the TCP transport's listen address.
func (r *Replica) Addr() string { return r.tcp.Addr() }

// Close stops the runtime and releases the socket and the journal.
func (r *Replica) Close() {
	r.RT.Stop()
	if r.tcp != nil {
		r.tcp.Close()
	}
	if r.journal != nil {
		r.journal.Close()
	}
}

// Applied returns the replica's absolute applied count, read inside the
// event loop.
func (r *Replica) Applied() (n int) {
	r.RT.Do(func(amp.Context) { n = r.Node.Len() })
	return n
}

// NetStats snapshots the TCP transport's counters for the "stat" op,
// summed over the reps started by StartTCP: frames accepted, delivered,
// shed at a full send buffer (the transport's one explicit loss mode)
// and redials. Surfacing them per process is what lets the e2e harness
// (and an operator) tell "slow consensus" from "dying links".
func NetStats(reps ...*Replica) *clientrpc.NetStats {
	out := &clientrpc.NetStats{}
	for _, r := range reps {
		if r.tcp == nil {
			continue
		}
		st := r.tcp.Stats()
		out.Sent += st.Sent.Load()
		out.Delivered += st.Delivered.Load()
		out.Retries += st.Retries.Load()
		out.Shed += st.Shed.Load()
	}
	return out
}

// JournalStats snapshots the journal/compaction counters for the
// "stat" op, summed over the reps that have a journal; nil when none
// does. Records < LifeRecords is the external proof that compaction is
// truncating, and Degraded flags a dying disk while the replica still
// runs.
func JournalStats(reps ...*Replica) *clientrpc.JournalStats {
	var out *clientrpc.JournalStats
	for _, r := range reps {
		if r.journal == nil {
			continue
		}
		if out == nil {
			out = &clientrpc.JournalStats{}
		}
		addJournalStats(out, r.journal.Stats())
	}
	return out
}

// Gauges reads each rep's Ω, rsm and lease state inside its event loop
// for the "stat" op, one entry per rep in the order given; the lease
// part only where the rep runs a read lease.
func Gauges(reps ...*Replica) []clientrpc.Gauges {
	out := make([]clientrpc.Gauges, len(reps))
	for i, r := range reps {
		g, nd := &out[i], r.Node
		r.RT.Do(func(ctx amp.Context) {
			g.Leader = nd.Omega.Leader()
			g.LeaderChanges = len(nd.Omega.Changes())
			g.FalseSuspicions = nd.Omega.FalseSuspicions()
			g.Resends = nd.Resends()
			if nd.Omega.LeaseTTL <= 0 {
				return
			}
			now := ctx.Now()
			l := &clientrpc.LeaseGauges{HoldsLease: nd.HoldsLease(now)}
			var until amp.Time
			l.GrantHolder, until, _ = nd.Omega.GrantHolder(now)
			if until > now {
				l.GrantLeft = int64(until - now)
			}
			g.Lease = l
		})
	}
	return out
}

// addJournalStats folds one journal's counters into the summed
// client-facing snapshot. Gen reports the maximum (the sum would be
// meaningless); Degraded is sticky if ANY journal is.
func addJournalStats(dst *clientrpc.JournalStats, s rsm.JournalStats) {
	dst.Records += s.Records
	dst.Bytes += s.Bytes
	dst.LifeRecords += s.LifeRecords
	dst.LifeBytes += s.LifeBytes
	dst.Snapshots += s.Snapshots
	dst.SnapBytes += s.SnapBytes
	if s.Gen > dst.Gen {
		dst.Gen = s.Gen
	}
	dst.WriteErrs += s.WriteErrs
	dst.Degraded = dst.Degraded || s.Degraded
}

// Waiters is the submit-then-wait-for-local-apply table: it maps a
// command a client RPC submitted at this replica to the channel the
// replica's apply hook completes.
//
// Completing a waiter only at the submitting replica's own apply point
// (never at a peer's) is a correctness decision, not an optimization:
// every operation completed through a replica is then in that
// replica's applied prefix, so a later local read (basicsd's apply-point
// get, kv's lease read) observes every write it is real-time-ordered
// after.
//
// Register must run in the same event-loop entry as the Submit that
// produced the id (Submit does it; kv's wave submission calls Register
// itself), so the apply cannot slip in between; Complete runs in the
// apply hook. The table's own mutex is what lets a timed-out Submit
// forget its entry from outside the loop.
type Waiters[T any] struct {
	mu sync.Mutex
	m  map[rbcast.MsgID]chan T
}

// Register makes ch (buffered, capacity ≥ 1) the completion of id.
func (w *Waiters[T]) Register(id rbcast.MsgID, ch chan T) {
	w.mu.Lock()
	if w.m == nil {
		w.m = make(map[rbcast.MsgID]chan T)
	}
	w.m[id] = ch
	w.mu.Unlock()
}

// take removes and returns id's waiter.
func (w *Waiters[T]) take(id rbcast.MsgID) (chan T, bool) {
	w.mu.Lock()
	ch, ok := w.m[id]
	delete(w.m, id)
	w.mu.Unlock()
	return ch, ok
}

// Complete hands result() to id's waiter and reports whether there was
// one. result is only evaluated for a registered id, so the apply hook
// pays nothing for the entries other replicas submitted.
func (w *Waiters[T]) Complete(id rbcast.MsgID, result func() T) bool {
	ch, ok := w.take(id)
	if !ok {
		return false
	}
	select {
	case ch <- result():
	default:
	}
	return true
}

// Len returns the number of registered waiters.
func (w *Waiters[T]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.m)
}

// Submit runs propose inside rt's event loop, registers the id it
// returns, and waits for Complete — at most timeout, after which the
// entry is dropped (the command may still apply; nobody is told).
func (w *Waiters[T]) Submit(rt *transport.Runtime, timeout time.Duration, propose func() rbcast.MsgID) (T, error) {
	ch := make(chan T, 1)
	var id rbcast.MsgID
	rt.Do(func(amp.Context) {
		id = propose()
		w.Register(id, ch)
	})
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out, nil
	case <-t.C:
		w.take(id)
		var zero T
		return zero, fmt.Errorf("timeout after %s (op may still apply)", timeout)
	}
}
