package kv

import (
	"fmt"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// Host is one process's side of a multi-process sharded KV: it runs
// replica Self of EVERY shard, each shard over its own TCP transport
// mesh (node.StartTCP: a send never waits on a peer's socket), and
// answers client RPCs by
// routing each key to its local replica of the owning shard. A write
// submitted here disseminates to the other processes' replicas of the
// same shard; reads take the lease fast path when this process leads
// that shard, else a consensus no-op.
type HostConfig struct {
	// Shards is the shard count; Peers[s][i] is replica i's transport
	// address for shard s (all rows same length = replica count).
	Shards int
	Peers  [][]string
	// Self is this process's replica index.
	Self int
	// Journals[s] is this process's journal path for its replica of
	// shard s (len == Shards; "" or a nil slice disables persistence
	// for that shard, losing kill -9 survival). Each journal compacts
	// automatically behind state snapshots, at the rsm default
	// thresholds.
	Journals []string
}

// The Host's Ω heartbeat and read lease, in ticks of
// transport.DefaultUnit (2ms).
const (
	// HostHeartbeatPeriod is the Ω heartbeat period of every Host
	// replica, half the other daemons' node.HeartbeatPeriod: a kv
	// failover lasts one lease TTL, which must exceed Ω's first
	// detection bound, so the lease can be no shorter than the detector
	// is slow. Ω suspects a peer three silent periods after its last
	// heartbeat, at the next sweep: 30–40 ticks (60–80 ms). Each shard's
	// idle group sends 2 frames a period at its leader and 3 at each
	// follower (TestIdleFramesPerPeriod).
	HostHeartbeatPeriod amp.Time = 10
	// hostLeaseTTL is five heartbeat periods: a 50-tick lease is 100ms,
	// renewed every 20ms. It is also the outage after a holder dies:
	// survivors honour its last grants for one TTL, which Ω's first
	// detection bound (40 ticks) stays under, and a survivor still bound
	// a few ticks longer tells the successor when to retry
	// (TestHostLeaseConstants, TestFailoverOutageIsOneTTL).
	hostLeaseTTL amp.Time = 50
	// hostLeaseMargin is subtracted from the holder-side validity of
	// every lease grant. The lease protocol's safety needs the holder's
	// belief to lapse before the granter's promise, which processes on
	// one clock get from the heartbeat's network delay alone; real
	// processes count their OWN ticks, which drift and jitter under
	// load, so the Host path must leave slack: TTL/10 + 2 = 7 ticks, so
	// a grant is believed for 43 (4.3 heartbeat periods). The lease
	// model (internal/scenario/models, TestLeaseMarginSweep) measures
	// what a margin buys: the largest clock-rate skew — the holder's
	// clock that much slow — at which 40 seeds of silenced leaders stay
	// linearizable, with the lease resolved into 250 sim ticks:
	//
	//	margin        0    TTL/20   TTL/10+2   TTL/5
	//	ticks         0    2        7          10
	//	safe skew     4%   9%       18%        23%
	//
	// The claim is 10% (the model's clock windows draw up to it, on any
	// replica, in either direction); the rest is scheduling jitter.
	hostLeaseMargin = hostLeaseTTL/10 + 2
)

// LeaseOptions are the read-lease options every Host replica runs: the
// Host's TTL and margin. The lease model runs exactly these.
func LeaseOptions() []rsm.NodeOption {
	return []rsm.NodeOption{rsm.WithReadLease(hostLeaseTTL), rsm.WithLeaseMargin(hostLeaseMargin)}
}

// ShardShape checks the shape a HostConfig and basicskv's cluster file
// share: one peer row per shard (shards 0 means one per row), at least
// one, every row as long as the first, and journals — paths here, rows
// in the file — either absent or one per shard. It returns the shard
// count.
func ShardShape(shards int, peers [][]string, journals int) (int, error) {
	if shards == 0 {
		shards = len(peers)
	}
	if shards != len(peers) || shards == 0 {
		return 0, fmt.Errorf("kv: %d shards but %d peer rows", shards, len(peers))
	}
	for s, row := range peers {
		if len(row) != len(peers[0]) {
			return 0, fmt.Errorf("kv: shard %d has %d replicas, shard 0 has %d", s, len(row), len(peers[0]))
		}
	}
	if journals != 0 && journals != shards {
		return 0, fmt.Errorf("kv: %d journals for %d shards", journals, shards)
	}
	return shards, nil
}

func (c HostConfig) withDefaults() (HostConfig, error) {
	var err error
	if c.Shards, err = ShardShape(c.Shards, c.Peers, len(c.Journals)); err != nil {
		return c, err
	}
	if c.Self < 0 || c.Self >= len(c.Peers[0]) {
		return c, fmt.Errorf("kv: self %d out of range", c.Self)
	}
	return c, nil
}

// Host runs this process's replicas; see HostConfig.
type Host struct {
	cfg    HostConfig
	rmap   RangeMap
	clock  *transport.RealClock
	shards []*Replica      // the kv side of each local shard replica
	stacks []*node.Replica // and the node stack under it
}

// NewHost starts every local shard replica. On error, transports
// already opened are closed.
func NewHost(cfg HostConfig) (*Host, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	h := &Host{cfg: cfg, rmap: UniformHexBounds(cfg.Shards), clock: transport.NewRealClock(transport.DefaultUnit)}
	for s := 0; s < cfg.Shards; s++ {
		if err := h.startShard(s); err != nil {
			h.Close()
			return nil, fmt.Errorf("kv: shard %d: %w", s, err)
		}
	}
	return h, nil
}

// startShard brings this process's replica of shard s up on the shared
// node skeleton; the kv part is the lease options and the replica's
// apply hook.
func (h *Host) startShard(s int) error {
	cfg := h.cfg
	n := len(cfg.Peers[s])
	sp := node.Spec{Self: cfg.Self, Peers: cfg.Peers[s], Seed: int64(s*n + cfg.Self + 1), Period: HostHeartbeatPeriod}
	if len(cfg.Journals) > s {
		sp.Journal = cfg.Journals[s]
	}
	var rep *Replica
	stack, err := node.StartTCP(sp, h.clock, func(_ *node.Replica, opts ...rsm.NodeOption) *rsm.Node {
		opts = append(append(opts, rsm.WithoutAppliedLog()), LeaseOptions()...)
		rep = NewReplica(rsm.NewNode(n, opts...))
		return rep.nd
	})
	if err != nil {
		return err
	}
	rep.Bind(stack.RT) // only client calls use it, and none can precede NewHost's return
	h.shards = append(h.shards, rep)
	h.stacks = append(h.stacks, stack)
	return nil
}

// Close stops every shard runtime, transport and journal.
func (h *Host) Close() {
	for _, stack := range h.stacks {
		stack.Close()
	}
}

// Handle serves one client RPC (wire-compatible with basicsd's KV
// subset); it is the clientrpc.Handler for a serving process.
func (h *Host) Handle(req clientrpc.Request) clientrpc.Response {
	if resp, ok := h.shardFor(req.Key).Serve(req); ok {
		return resp
	}
	switch req.Op {
	case "stat":
		total := 0
		for _, stack := range h.stacks {
			total += stack.Applied()
		}
		return clientrpc.Response{OK: true, Applied: total, Net: node.NetStats(h.stacks...), Journal: node.JournalStats(h.stacks...), Gauges: node.Gauges(h.stacks...)}
	default:
		return clientrpc.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (h *Host) shardFor(key string) *Replica { return h.shards[h.rmap.Shard(key)] }
