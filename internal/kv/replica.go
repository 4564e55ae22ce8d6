package kv

import (
	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// Replica drives one rsm replica this process hosts: operation
// submission with completion at the LOCAL apply, the leader read-lease
// fast path, and the put/del/get verbs of the line-JSON client RPC. It
// is the one KV front end: Host runs one per shard, the in-process
// Engine one per shard replica, and cmd/basicsd one beside its
// broadcast verbs (with no lease configured, so every get there is a
// consensus read).
//
// Completing a waiter only at the submitting replica's own apply point
// (never at a peer's) is a correctness decision, not an optimization:
// if a write could complete because some other replica applied it, a
// subsequent lease read at this replica could run before the write
// reached this replica's state machine and return stale data. With
// local-apply completion, every operation completed through a replica
// is in that replica's applied prefix, so a lease read here observes
// every write it is real-time-ordered after.
type Replica struct {
	nd      *rsm.Node
	rt      *transport.Runtime
	waiters node.Waiters[any]
}

// pendingOp is one client operation staged for submission.
type pendingOp struct {
	cmd  rsm.Command
	done chan any // buffered 1; receives the op's return value
}

func newPendingOp(cmd rsm.Command) *pendingOp {
	return &pendingOp{cmd: cmd, done: make(chan any, 1)}
}

// NewReplica hooks a Replica onto nd's apply stream (nd.OnApply). The
// node's runtime usually does not exist yet: Bind it before the first
// client call.
func NewReplica(nd *rsm.Node) *Replica {
	r := &Replica{nd: nd}
	nd.OnApply = r.onApply
	return r
}

// Bind sets the runtime whose event loop Submit, Serve and the lease
// read enter.
func (r *Replica) Bind(rt *transport.Runtime) { r.rt = rt }

// onApply runs inside the event loop after every applied entry and
// completes a waiting submission. Reads of the local state here are at
// the entry's linearization point, which is what makes a "get" no-op
// command a linearizable quorum read.
func (r *Replica) onApply(e rsm.Entry, _ amp.Time) {
	r.waiters.Complete(e.ID, func() any {
		if cmd, isCmd := e.Payload.(rsm.Command); isCmd && cmd.Op == "get" {
			return r.nd.Get(cmd.Key)
		}
		return nil
	})
}

// submitWave registers and submits a wave of staged operations in one
// event-loop entry, amortizing the actor-mutex round trip across the
// whole wave.
func (r *Replica) submitWave(ops []*pendingOp) {
	r.rt.Do(func(amp.Context) {
		for _, o := range ops {
			r.waiters.Register(r.nd.Submit(r.nd.Ctx(), o.cmd), o.done)
		}
	})
}

// Submit runs one command through consensus and waits for the local
// apply, with a deadline (the RPC path).
func (r *Replica) Submit(cmd rsm.Command) (any, error) {
	return r.waiters.Submit(r.rt, node.RPCTimeout, func() rbcast.MsgID { return r.nd.Submit(r.nd.Ctx(), cmd) })
}

// LeaseRead is the lease read's decision, made inside nd's event loop
// (ctx is the context it runs in): key's local value iff nd holds the
// read lease on its own clock (it is the Ω leader and a majority's
// grants are unexpired). Inside the loop the read observes a consistent
// applied prefix; the lease guarantees no other replica can commit
// writes nd has not seen while the grant set is live. Every Replica
// serves its lease reads through it, and the scenario harness's lease
// model runs it under clock-rate faults.
func LeaseRead(ctx amp.Context, nd *rsm.Node, key string) (val any, ok bool) {
	if !nd.HoldsLease(ctx.Now()) {
		return nil, false
	}
	return nd.Get(key), true
}

// leaseRead runs LeaseRead in the replica's event loop.
func (r *Replica) leaseRead(key string) (val any, ok bool) {
	r.rt.Do(func(ctx amp.Context) { val, ok = LeaseRead(ctx, r.nd, key) })
	return val, ok
}

// Serve answers the KV verbs of a client RPC — put and del through
// consensus, get from the lease when held and else as a consensus no-op
// read — and reports false for any other op.
func (r *Replica) Serve(req clientrpc.Request) (clientrpc.Response, bool) {
	var cmd rsm.Command
	switch req.Op {
	case "put", "del":
		cmd = rsm.Command{Op: req.Op, Key: req.Key, Val: clientrpc.NormalizeVal(req.Val)}
	case "get":
		if v, ok := r.leaseRead(req.Key); ok {
			return clientrpc.Response{OK: true, Val: v}, true
		}
		cmd = rsm.Command{Op: "get", Key: req.Key}
	default:
		return clientrpc.Response{}, false
	}
	out, err := r.Submit(cmd)
	if err != nil {
		return clientrpc.Response{Err: err.Error()}, true
	}
	return clientrpc.Response{OK: true, Val: out}, true
}
