// Package kv is the sharded, batched, replicated key-value engine
// built on the repository's universal construction: every shard is an
// independent rsm replica group (Ω-driven Paxos per slot, batched
// TO-broadcast), and a key-range map routes each key to exactly one
// shard, so throughput scales with shard count while every per-key
// history stays linearizable.
//
// # Sharding
//
// RangeMap partitions the key space by sorted lower bounds: shard i
// owns keys in [Bounds[i-1], Bounds[i]). Cross-shard operations do not
// exist (single-key API), so shards never coordinate — linearizability
// is local (Herlihy & Wing), and the per-shard groups compose into a
// linearizable map for free.
//
// # Batching
//
// Writes ride the rsm proposer's batching: every consensus slot
// carries up to rsm's MaxBatch commands, one slot at a time. The
// engine staged-submits client operations in waves (one actor-mutex
// entry per wave, not per op), so a closed-loop load of thousands of
// writers costs a handful of consensus rounds per batch, not per
// write.
//
// # Read leases
//
// Reads take the leader lease fast path when the shard's Ω leader
// holds a majority-granted read lease (internal/fd): the read is
// served from the leader's applied state under its actor mutex,
// without a consensus round. Safety comes from acceptor-side
// enforcement — while a grant is live, acceptors drop rival ballots,
// so no write can commit that the leaseholder has not applied. When
// the lease is not held (leader flap, partition, lease disabled), the
// read falls back to a consensus no-op command whose apply point is
// its linearization point.
//
// # Unknown outcomes
//
// A command whose replica stays up is applied once a majority is up:
// rsm re-sends it until it is ordered. One whose replica crashed first
// may or may not have applied, and is its client's to retry.
package kv

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// RangeMap routes keys to shards by sorted lower bounds: shard 0 owns
// keys below Bounds[0], shard i owns [Bounds[i-1], Bounds[i]), and the
// last shard owns everything from the final bound up. len(Bounds) is
// the shard count minus one; an empty map is a single shard.
type RangeMap struct{ Bounds []string }

// Shard returns the shard index owning key.
func (m RangeMap) Shard(key string) int {
	return sort.Search(len(m.Bounds), func(i int) bool { return m.Bounds[i] > key })
}

// Shards returns the number of shards the map routes to.
func (m RangeMap) Shards() int { return len(m.Bounds) + 1 }

// UniformHexBounds builds a RangeMap splitting keys evenly by their
// leading two-hex-digit prefix — the engine's default for up to 256
// shards, matched by load generators that spread keys across hex
// prefixes.
func UniformHexBounds(shards int) RangeMap {
	bounds := make([]string, 0, shards-1)
	for i := 1; i < shards; i++ {
		bounds = append(bounds, fmt.Sprintf("%02x", 256*i/shards))
	}
	return RangeMap{Bounds: bounds}
}

// Options tunes an in-process Engine.
type Options struct {
	// Shards is the number of independent replica groups (default 1),
	// routed by UniformHexBounds.
	Shards int
	// LeaseTTL is the read-lease TTL in virtual ticks; 0 means
	// DefaultLeaseTTL, negative disables the fast path entirely.
	LeaseTTL amp.Time
	// Seed varies the per-replica runtime seeds.
	Seed int64
}

const (
	// DefaultLeaseTTL is several heartbeat periods: lease grants renew
	// with every Ω heartbeat.
	DefaultLeaseTTL amp.Time = 512

	replicas                 = 3  // per shard group
	heartbeatPeriod amp.Time = 64 // Ω heartbeat interval, virtual ticks
	step            amp.Time = 16 // virtual ticks per pump pass

	// waveCap bounds staged submissions injected per pump pass.
	waveCap = 256

	// leaderProbePasses is how often (in pump passes) the cached
	// leader index is refreshed from Ω.
	leaderProbePasses = 64
)

// ErrClosed reports an operation against a closed engine.
var ErrClosed = errors.New("kv: engine closed")

// Stats is a point-in-time engine counters snapshot.
type Stats struct {
	// LeaseReads served locally at a leaseholder leader; QuorumReads
	// fell back to a consensus no-op.
	LeaseReads, QuorumReads uint64
	// Writes submitted through consensus (put/del).
	Writes uint64
	// Slots is the total consensus slots delivered across shards —
	// Writes/Slots is the achieved batching factor.
	Slots int
}

// Engine is the in-process sharded KV: every shard is a replica group
// over its own deterministic Loopback network, pumped by a dedicated
// goroutine that advances virtual time and injects staged client
// operations.
type Engine struct {
	rmap   RangeMap
	shards []*shard
}

var wireOnce sync.Once

func registerWire() {
	wireOnce.Do(func() {
		amp.RegisterWire(transport.Register)
		rsm.RegisterWire(transport.Register)
	})
}

// Open builds and starts an engine.
func Open(opts Options) *Engine {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	registerWire()
	e := &Engine{rmap: UniformHexBounds(opts.Shards)}
	for s := 0; s < opts.Shards; s++ {
		e.shards = append(e.shards, newShard(s, opts))
	}
	return e
}

// Close stops every shard's pump and runtime.
func (e *Engine) Close() {
	for _, sh := range e.shards {
		sh.close()
	}
}

// Put stores key=val, completing when the write is applied at the
// submitting replica.
func (e *Engine) Put(key string, val any) error {
	_, err := e.shardOf(key).do(rsm.Command{Op: "put", Key: key, Val: val})
	return err
}

// Del removes key.
func (e *Engine) Del(key string) error {
	_, err := e.shardOf(key).do(rsm.Command{Op: "del", Key: key})
	return err
}

// Get returns key's value (nil if absent): the leader-lease local
// read when the lease is held, else a consensus no-op read.
func (e *Engine) Get(key string) (any, error) {
	sh := e.shardOf(key)
	ld := sh.leaderIdx()
	if v, ok := sh.reps[ld].leaseRead(key); ok {
		sh.leaseReads.Add(1)
		return v, nil
	}
	sh.quorumReads.Add(1)
	return sh.do(rsm.Command{Op: "get", Key: key})
}

func (e *Engine) shardOf(key string) *shard { return e.shards[e.rmap.Shard(key)] }

// Stats aggregates counters across shards.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, sh := range e.shards {
		st.LeaseReads += sh.leaseReads.Load()
		st.QuorumReads += sh.quorumReads.Load()
		st.Writes += sh.writes.Load()
		rep := sh.reps[0]
		rep.rt.Do(func(amp.Context) { st.Slots += rep.nd.SlotsDelivered() })
	}
	return st
}

// shard is one replica group plus its pump.
type shard struct {
	lb   *transport.Loopback
	reps []*Replica

	subc   chan *pendingOp
	stopc  chan struct{}
	wg     sync.WaitGroup
	leader atomic.Int32

	// inflight counts client operations staged or awaiting completion;
	// the pump spins only while it is nonzero.
	inflight atomic.Int64

	leaseReads, quorumReads, writes atomic.Uint64
}

func newShard(idx int, opts Options) *shard {
	sh := &shard{
		lb:    transport.NewLoopback(replicas),
		subc:  make(chan *pendingOp, 4*waveCap),
		stopc: make(chan struct{}),
	}
	for i := 0; i < replicas; i++ {
		nodeOpts := []rsm.NodeOption{rsm.WithoutAppliedLog()}
		if opts.LeaseTTL > 0 {
			nodeOpts = append(nodeOpts, rsm.WithReadLease(opts.LeaseTTL))
		}
		nd := rsm.NewNode(replicas, nodeOpts...)
		nd.Omega.Period = heartbeatPeriod
		rt := transport.NewRuntime(sh.lb.Node(i), sh.lb.Clock(), nd.Stack,
			transport.WithRuntimeSeed(opts.Seed+int64(idx*replicas+i+1)))
		rep := NewReplica(nd)
		rep.Bind(rt)
		sh.reps = append(sh.reps, rep)
	}
	for _, rep := range sh.reps {
		rep.rt.Start()
	}
	sh.wg.Add(1)
	go sh.pump()
	return sh
}

func (sh *shard) close() {
	close(sh.stopc)
	sh.wg.Wait()
	for _, rep := range sh.reps {
		rep.rt.Stop()
	}
}

func (sh *shard) leaderIdx() int { return int(sh.leader.Load()) }

// do stages one command and waits for its completion.
func (sh *shard) do(cmd rsm.Command) (any, error) {
	if cmd.Op != "get" {
		sh.writes.Add(1)
	}
	op := newPendingOp(cmd)
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	select {
	case sh.subc <- op:
	case <-sh.stopc:
		return nil, ErrClosed
	}
	select {
	case out := <-op.done:
		return out, nil
	case <-sh.stopc:
		return nil, ErrClosed
	}
}

// idleTick paces virtual time while no client operations are in
// flight. It only needs to be fast enough for the initial Ω election
// and lease acquisition to converge promptly: the shard's clocks are
// virtual, so a parked pump freezes heartbeats AND lease expiry
// together — idling costs nothing but this trickle.
const idleTick = time.Millisecond

// pump is the shard's event loop driver: inject staged operations at
// the leader replica, advance the deterministic network by step
// virtual ticks, and park while no client work is outstanding.
// Virtual time advances only here, so heartbeat frequency and lease
// TTLs scale with actual event throughput instead of wall-clock
// rates. While operations ARE in flight the pump yields the processor
// after every pass: on small GOMAXPROCS a hot loop would otherwise
// starve submitters and completed waiters for a full preemption
// quantum (~10ms) per operation.
func (sh *shard) pump() {
	defer sh.wg.Done()
	wave := make([]*pendingOp, 0, waveCap)
	pass := 0
	for {
		select {
		case <-sh.stopc:
			return
		default:
		}
		wave = wave[:0]
	staged:
		for len(wave) < waveCap {
			select {
			case op := <-sh.subc:
				wave = append(wave, op)
			default:
				break staged
			}
		}
		if len(wave) > 0 {
			sh.reps[sh.leaderIdx()].submitWave(wave)
		}
		sh.lb.Run(sh.lb.Now() + step)

		pass++
		if pass%leaderProbePasses == 0 {
			sh.probeLeader()
		}
		if sh.inflight.Load() == 0 {
			// Nothing staged or awaiting completion: park until work
			// arrives. The timeout keeps virtual time trickling so Ω
			// elections and lease handshakes make progress from cold.
			select {
			case op := <-sh.subc:
				sh.reps[sh.leaderIdx()].submitWave([]*pendingOp{op})
			case <-sh.stopc:
				return
			case <-time.After(idleTick):
			}
		} else {
			runtime.Gosched()
		}
	}
}

// probeLeader refreshes the cached Ω leader index. A stale cache is
// harmless: submissions at a non-leader still disseminate and get
// batched by the real leader, and lease reads at a non-leader simply
// fall back to quorum reads.
func (sh *shard) probeLeader() {
	rep := sh.reps[0]
	rep.rt.Do(func(amp.Context) {
		if ld := rep.nd.Omega.Leader(); ld >= 0 && ld < len(sh.reps) {
			sh.leader.Store(int32(ld))
		}
	})
}
