package kv

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
	"distbasics/internal/rsm"
)

// spreadKey builds a key routed by its two-hex-digit prefix, matching
// UniformHexBounds.
func spreadKey(i int, tag string) string {
	return fmt.Sprintf("%02x-%s-%d", (i*37)%256, tag, i)
}

func TestRangeMapRouting(t *testing.T) {
	m := UniformHexBounds(8)
	if got := m.Shards(); got != 8 {
		t.Fatalf("Shards() = %d", got)
	}
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		s := m.Shard(spreadKey(i, "k"))
		if s < 0 || s >= 8 {
			t.Fatalf("key routed to shard %d", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no keys (bounds %v)", s, m.Bounds)
		}
	}
	// Range semantics: a key below the first bound is shard 0; a key
	// equal to a bound belongs to the shard above it.
	if got := m.Shard(""); got != 0 {
		t.Fatalf("empty key routed to %d", got)
	}
	if got := m.Shard(m.Bounds[0]); got != 1 {
		t.Fatalf("key equal to bound 0 routed to %d, want 1", got)
	}
}

func TestEngineRoundTrip(t *testing.T) {
	e := Open(Options{Shards: 4})
	defer e.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if err := e.Put(spreadKey(i, "rt"), i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := e.Get(spreadKey(i, "rt"))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("get %d = %v", i, v)
		}
	}
	if err := e.Del(spreadKey(0, "rt")); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Get(spreadKey(0, "rt")); err != nil || v != nil {
		t.Fatalf("after del: v=%v err=%v", v, err)
	}
}

// TestEngineLeaseFastPath: with leases on (default), a read-heavy
// steady state serves most reads locally at the leader, not through
// consensus.
func TestEngineLeaseFastPath(t *testing.T) {
	e := Open(Options{Shards: 1})
	defer e.Close()
	if err := e.Put("00-x", 1); err != nil {
		t.Fatal(err)
	}
	// Let the group elect, grant, and stabilize the lease.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		e.Get("00-x")
		if e.Stats().LeaseReads > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if e.Stats().LeaseReads == 0 {
		t.Fatal("no lease read ever served; fast path dead")
	}
	before := e.Stats()
	for i := 0; i < 200; i++ {
		if _, err := e.Get("00-x"); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if gained := after.LeaseReads - before.LeaseReads; gained < 150 {
		t.Fatalf("only %d of 200 steady-state reads took the lease path", gained)
	}
}

// TestEngineQuorumFallback: with leases disabled every read falls back
// to the consensus no-op — and still returns correct values.
func TestEngineQuorumFallback(t *testing.T) {
	e := Open(Options{Shards: 1, LeaseTTL: -1})
	defer e.Close()
	if err := e.Put("00-y", 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := e.Get("00-y")
		if err != nil {
			t.Fatal(err)
		}
		if v != 7 {
			t.Fatalf("read %d = %v", i, v)
		}
	}
	st := e.Stats()
	if st.LeaseReads != 0 {
		t.Fatalf("%d lease reads with leasing disabled", st.LeaseReads)
	}
	if st.QuorumReads < 10 {
		t.Fatalf("only %d quorum reads recorded", st.QuorumReads)
	}
}

// TestEngineBatching: a concurrent write burst must decide far fewer
// slots than commands.
func TestEngineBatching(t *testing.T) {
	e := Open(Options{Shards: 1})
	defer e.Close()
	const writers, per = 16, 32
	var wg sync.WaitGroup
	var fail atomic.Value
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Put(spreadKey(w*per+i, "b"), i); err != nil {
					fail.Store(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Writes != writers*per {
		t.Fatalf("writes = %d, want %d", st.Writes, writers*per)
	}
	if st.Slots >= int(st.Writes) {
		t.Fatalf("%d slots for %d writes: no batching", st.Slots, st.Writes)
	}
}

// TestEngineLinearizable runs a concurrent mixed workload against
// sampled keys and feeds the recorded per-key histories through the
// partitioned linearizability checker — the same validation the bench
// applies to its sampled load.
func TestEngineLinearizable(t *testing.T) {
	e := Open(Options{Shards: 4})
	defer e.Close()
	rec := check.NewRecorder()
	var seq atomic.Int64
	keys := []string{"10-lin-a", "58-lin-b", "a0-lin-c", "e8-lin-d"}
	const procs, opsPer = 8, 14 // 2 procs/key x 14 ops < 63-op cap
	var wg sync.WaitGroup
	var fail atomic.Value
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := keys[p%len(keys)]
			for i := 0; i < opsPer; i++ {
				if (p+i)%2 == 0 {
					v := int(seq.Add(1))
					inv := rec.Call(p, check.KeyedOp{Key: key, Op: check.WriteOp{V: v}})
					if err := e.Put(key, v); err != nil {
						fail.Store(err)
						return
					}
					inv.Return(nil)
				} else {
					inv := rec.Call(p, check.KeyedOp{Key: key, Op: check.ReadOp{}})
					v, err := e.Get(key)
					if err != nil {
						fail.Store(err)
						return
					}
					inv.Return(v)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}
	h := rec.History()
	res, err := check.Linearizable(check.RegisterArraySpec{}, h)
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	if !res.OK {
		t.Fatalf("history of %d ops does not linearize", len(h))
	}
	if res.Partitions != len(keys) {
		t.Fatalf("checked %d partitions, want %d", res.Partitions, len(keys))
	}
}

// TestHostTCP brings up a 3-replica, 2-shard Host mesh over real TCP
// (three Hosts in one process — the transport neither knows nor cares),
// at the Host's own heartbeat period, and round-trips operations
// through each host, exercising
// cross-process dissemination and the lease/fallback read paths.
func TestHostTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP mesh")
	}
	const replicas, shards = 3, 2
	hosts := startHosts(t, replicas, shards)
	for s, stack := range hosts[0].stacks {
		if p := stack.Node.Omega.Period; p != HostHeartbeatPeriod {
			t.Fatalf("shard %d heartbeats every %d ticks, want HostHeartbeatPeriod %d", s, p, HostHeartbeatPeriod)
		}
	}
	for i := 0; i < 16; i++ {
		key := spreadKey(i, "tcp")
		resp := hosts[i%replicas].Handle(reqPut(key, i))
		if !resp.OK {
			t.Fatalf("put %d via host %d: %s", i, i%replicas, resp.Err)
		}
	}
	for i := 0; i < 16; i++ {
		key := spreadKey(i, "tcp")
		// Read through a different host than wrote.
		resp := hosts[(i+1)%replicas].Handle(reqGet(key))
		if !resp.OK {
			t.Fatalf("get %d: %s", i, resp.Err)
		}
		if resp.Val != i {
			t.Fatalf("get %d = %v", i, resp.Val)
		}
	}
	// The leader host must eventually serve reads on the lease fast
	// path: the real-clock drift margin discounts grant validity but
	// renewal every heartbeat period keeps a healthy lease live.
	key := spreadKey(0, "tcp")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := hosts[0].shardFor(key).leaseRead(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader host never served a lease fast-path read under the real clock")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startHosts brings up one Host per replica of a TCP cluster with the
// given shard count, each closed when the test ends.
func startHosts(t *testing.T, replicas, shards int) []*Host {
	t.Helper()
	peers := make([][]string, shards)
	for s := range peers {
		var err error
		if peers[s], err = node.AllocAddrs(replicas); err != nil {
			t.Fatal(err)
		}
	}
	hosts := make([]*Host, replicas)
	for i := range hosts {
		h, err := NewHost(HostConfig{Shards: shards, Peers: peers, Self: i})
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		t.Cleanup(h.Close)
		hosts[i] = h
	}
	return hosts
}

// TestHostLeaseConstants pins what the Host's lease constants must
// satisfy, read from replicas built and started with LeaseOptions at
// HostHeartbeatPeriod: the margin leaves a lease to hold; a grant
// outlives three lost heartbeats (renewal is every period, so the
// holder's belief spans four); and the TTL exceeds Ω's first detection
// bound, so a failover's outage is the TTL and not the detector.
func TestHostLeaseConstants(t *testing.T) {
	nodes := make([]*rsm.Node, 3)
	procs := make([]amp.Process, len(nodes))
	for i := range nodes {
		nodes[i] = rsm.NewNode(len(nodes), LeaseOptions()...)
		nodes[i].Omega.Period = HostHeartbeatPeriod
		procs[i] = nodes[i].Stack
	}
	amp.NewSim(procs).Run(1)
	d := nodes[0].Omega
	ttl, margin := d.LeaseTTL, d.LeaseMargin
	if ttl != hostLeaseTTL || margin != hostLeaseMargin {
		t.Fatalf("LeaseOptions set TTL %d and margin %d, want the Host's %d and %d", ttl, margin, hostLeaseTTL, hostLeaseMargin)
	}
	if margin >= ttl {
		t.Errorf("margin %d >= TTL %d: no grant would ever be believed", margin, ttl)
	}
	if ttl-margin < 4*d.Period {
		t.Errorf("a grant is believed for %d ticks, under four heartbeat periods (%d): three lost heartbeats lose the lease", ttl-margin, 4*d.Period)
	}
	// A silent leader is suspected at the first sweep after the initial
	// timeout: sweeps run every Period.
	if detect := d.InitialTimeout + d.Period; ttl <= detect {
		t.Errorf("TTL %d <= Ω's first detection bound %d: the detector, not the lease, would set the outage", ttl, detect)
	}
	t.Logf("TTL %d, margin %d, belief %d = %.1f heartbeat periods, detection bound %d", ttl, margin, ttl-margin,
		float64(ttl-margin)/float64(d.Period), d.InitialTimeout+d.Period)
}

// outageSlack is how far past one TTL a failover may run: the dead
// holder's last heartbeat takes a tick to arrive, so its grant lapses
// up to a tick after crash+TTL, and the successor's ballot then takes
// prepare, promise, accept, accepted and decide, a tick each, and a
// mux pace before the survivor applies. A survivor that hears the holder
// late stays bound that much longer, and refuses the successor's first
// ballot; the refusal's hop brings the retry to within a tick of its
// lapse, which the same slack covers up to 3 ticks late.
const outageSlack = 8

// TestFailoverOutageIsOneTTL pins the outage kv-tcp-failover measures,
// deterministically: three replicas with LeaseOptions at
// HostHeartbeatPeriod on amp.Sim, links of one tick (a localhost frame
// takes well under one), the leader crashes, and a survivor submits a
// put the tick after. At every crash phase within a heartbeat period,
// the ticks from the crash to a survivor's first commit exceed
// TTL − Period (the dead holder heartbeat at most one Period before the
// crash, and a grant is honoured for a TTL from its receipt) and stay
// within TTL + outageSlack: the lease sets the outage, not Ω, whose
// first detection bound is shorter. The same holds when survivor 2
// hears the holder 1–3 ticks after survivor 1 and so stays bound that
// much longer: its acceptor refuses the successor's first ballot and
// says for how long, and the successor retries then, not a Synod retry
// period later.
func TestFailoverOutageIsOneTTL(t *testing.T) {
	for lag := amp.Time(0); lag <= 3; lag++ {
		lo, hi := failoverOutages(t, lag)
		t.Logf("kv failover on amp.Sim, survivor 2 %d ticks late: outage %d–%d ticks over %d crash phases (TTL %d, heartbeat period %d)",
			lag, lo, hi, HostHeartbeatPeriod, hostLeaseTTL, HostHeartbeatPeriod)
	}
}

// failoverOutages runs TestFailoverOutageIsOneTTL's crash at every phase
// of a heartbeat period over links of one tick, lag more from 0 to 2,
// checks each outage and returns their range.
func failoverOutages(t *testing.T, lag amp.Time) (lo, hi amp.Time) {
	t.Helper()
	const base = 1000
	lo = 10 * hostLeaseTTL
	for crashAt := amp.Time(base); crashAt < base+HostHeartbeatPeriod; crashAt++ {
		nodes := make([]*rsm.Node, 3)
		procs := make([]amp.Process, len(nodes))
		var committed amp.Time
		for i := range nodes {
			nodes[i] = rsm.NewNode(len(nodes), LeaseOptions()...)
			nodes[i].Omega.Period = HostHeartbeatPeriod
			nodes[i].OnApply = func(_ rsm.Entry, at amp.Time) {
				if at > crashAt && committed == 0 {
					committed = at
				}
			}
			procs[i] = nodes[i].Stack
		}
		sim := amp.NewSim(procs, amp.WithDelay(amp.DelayFunc(func(src, dst int, _ amp.Time, _ *rand.Rand) amp.Time {
			if src == 0 && dst == 2 {
				return 1 + lag
			}
			return 1
		})))
		sim.CrashAt(0, crashAt)
		sim.Schedule(crashAt+1, func() {
			if h, _, ok := nodes[1].Omega.GrantHolder(sim.Now()); !ok || h != 0 {
				t.Errorf("crash at %d: survivor 1 is bound to (%d, %v), want the dead holder 0", crashAt, h, ok)
			}
			nodes[1].Submit(nodes[1].Ctx(), rsm.Command{Op: "put", Key: "x", Val: 1})
		})
		sim.Run(crashAt + 10*hostLeaseTTL)
		outage := committed - crashAt
		if committed == 0 || outage <= hostLeaseTTL-HostHeartbeatPeriod || outage > hostLeaseTTL+outageSlack {
			t.Fatalf("survivor 2 %d ticks late, crash at %d, first commit after it at %d: outage %d ticks, want in (%d, %d]",
				lag, crashAt, committed, outage, hostLeaseTTL-HostHeartbeatPeriod, hostLeaseTTL+outageSlack)
		}
		lo, hi = min(lo, outage), max(hi, outage)
	}
	return lo, hi
}

// TestHostStatGauges: basicskv's stat reply carries, per shard, the Ω,
// rsm and lease gauges a failover is read from — each present in the
// JSON a client sees, and consistent across a settled cluster: every
// replica follows replica 0, which holds the lease once a read has gone
// through it, and a follower's acceptor is bound to it.
func TestHostStatGauges(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP mesh")
	}
	const replicas, shards = 3, 2
	hosts := startHosts(t, replicas, shards)
	stat := func(i int) []map[string]any {
		raw, err := json.Marshal(hosts[i].Handle(clientrpc.Request{Op: "stat"}))
		if err != nil {
			t.Fatal(err)
		}
		var resp struct {
			Gauges []map[string]any `json:"gauges"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Gauges) != shards {
			t.Fatalf("host %d stat carries %d shard gauges, want %d: %s", i, len(resp.Gauges), shards, raw)
		}
		out := make([]map[string]any, shards)
		for s, g := range resp.Gauges {
			lease, _ := g["lease"].(map[string]any)
			out[s] = map[string]any{"leader": g["leader"]}
			for k, v := range lease {
				out[s][k] = v
			}
			for _, k := range []string{"leader", "resends", "leaderChanges", "falseSuspicions"} {
				if _, ok := g[k]; !ok {
					t.Errorf("host %d shard %d stat has no %q gauge: %s", i, s, k, raw)
				}
			}
			for _, k := range []string{"holdsLease", "grantHolder", "grantLeft"} {
				if _, ok := lease[k]; !ok {
					t.Errorf("host %d shard %d stat has no lease %q gauge: %s", i, s, k, raw)
				}
			}
		}
		return out
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for s := 0; s < shards; s++ { // a read through each shard's leader: its barrier
			hosts[0].Handle(reqGet(fmt.Sprintf("%02x", s*(256/shards))))
		}
		settled := true
		for i := range hosts {
			for s, g := range stat(i) {
				want := i == 0
				settled = settled && g["leader"] == 0.0 && g["holdsLease"] == want && g["grantHolder"] == 0.0
				if i != 0 && settled && g["grantLeft"].(float64) <= 0 {
					t.Errorf("host %d shard %d is bound to 0 with no grant left: %v", i, s, g)
				}
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no settled lease gauges in 10 s: %v / %v / %v", stat(0), stat(1), stat(2))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func reqPut(k string, v any) clientrpc.Request {
	return clientrpc.Request{Op: "put", Key: k, Val: v}
}

func reqGet(k string) clientrpc.Request {
	return clientrpc.Request{Op: "get", Key: k}
}
