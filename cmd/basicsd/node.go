package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// server is one running basicsd node: the shared replica skeleton
// (internal/node: TCP(+Chaos)→Resilient→Runtime under an rsm replica,
// journaled) plus this daemon's verb table behind the line-JSON client
// RPC front end (internal/clientrpc's epoll reactor and bounded worker
// pool — not a goroutine per connection).
type server struct {
	id  int
	rep *node.Replica
	rpc *clientrpc.Server

	boot   int64 // uid epoch: distinguishes restarts of the same id
	uidSeq atomic.Int64

	waiters node.Waiters[any]
}

// runServe is the `basicsd serve` entrypoint: bring up node `id` of the
// cluster described by the config file and serve client RPCs until
// killed. There is no graceful shutdown path on purpose — the process
// model is crash-stop (kill -9), and the journal plus the peers'
// anti-entropy carry it through restart.
func runServe(cfgPath string, id int) error {
	cfg := &node.Config{}
	if err := node.Load(cfgPath, cfg); err != nil {
		return err
	}
	s := &server{id: id, boot: time.Now().UnixNano()}
	_, err := cfg.Start(id, transport.NewRealClock(cfg.Unit()), func(r *node.Replica, opts ...rsm.NodeOption) *rsm.Node {
		s.rep = r
		nd := rsm.NewNode(len(cfg.Peers), opts...)
		nd.OnApply = s.onApply
		return nd
	})
	if err != nil {
		return err
	}
	if s.rpc, err = clientrpc.NewServer(cfg.Clients[id], s.handle); err != nil {
		s.rep.Close()
		return fmt.Errorf("client listen %s: %w", cfg.Clients[id], err)
	}
	log.Printf("basicsd: node %d up: peers=%s clients=%s journal=%s",
		id, s.rep.Addr(), s.rpc.Addr(), cfg.Journals[id])
	select {} // crash-stop: run until killed
}

// onApply runs inside the event loop after every applied entry and
// completes any RPC waiting on it. Reads of the local state here are
// at the entry's linearization point, which is what makes a "get"
// no-op command a linearizable read.
func (s *server) onApply(e rsm.Entry, _ amp.Time) {
	s.waiters.Complete(e.ID, func() any {
		if cmd, ok := e.Payload.(rsm.Command); ok && cmd.Op == "get" {
			return s.rep.Node.Get(cmd.Key)
		}
		return nil
	})
}

// submit runs cmd through consensus and waits for its local apply.
func (s *server) submit(cmd rsm.Command) (any, error) {
	nd := s.rep.Node
	return s.waiters.Submit(s.rep.RT, node.RPCTimeout, func() rbcast.MsgID { return nd.Submit(nd.Ctx(), cmd) })
}

// handle serves one client request; it runs on a clientrpc pool
// worker, so blocking on a consensus round-trip here is what the
// pool's bound admission-controls. Requests on one connection are
// served sequentially (a client is one logical process; its history
// must be sequential anyway) — clientrpc guarantees per-connection
// FIFO.
func (s *server) handle(req clientrpc.Request) clientrpc.Response {
	switch req.Op {
	case "put", "del":
		cmd := rsm.Command{Op: req.Op, Key: req.Key, Val: clientrpc.NormalizeVal(req.Val)}
		if _, err := s.submit(cmd); err != nil {
			return clientrpc.Response{Err: err.Error()}
		}
		return clientrpc.Response{OK: true}
	case "bcast":
		// Total-order broadcast of an order-only message: the command
		// touches no KV state but lands in every replica's applied
		// sequence exactly once, in the same position.
		if _, err := s.submit(rsm.Command{Op: "bcast", Key: req.Key}); err != nil {
			return clientrpc.Response{Err: err.Error()}
		}
		return clientrpc.Response{OK: true}
	case "get":
		// A "get" rides through consensus as a no-op command; its apply
		// point at this replica is the read's linearization point.
		out, err := s.submit(rsm.Command{Op: "get", Key: req.Key})
		if err != nil {
			return clientrpc.Response{Err: err.Error()}
		}
		return clientrpc.Response{OK: true, Val: out}
	case "uid":
		// Unique IDs need no consensus: node id + boot epoch + local
		// counter is collision-free across nodes and restarts (§2 of the
		// paper: some problems are sub-consensus).
		n := s.uidSeq.Add(1)
		return clientrpc.Response{OK: true, ID: fmt.Sprintf("%d-%x-%d", s.id, s.boot, n)}
	case "order":
		// Applied order snapshot, read inside the event loop. After a
		// recovery from a snapshot only the suffix past the snapshot's
		// coverage is retained; OrderBase is its absolute position.
		var ids []string
		var base int
		s.rep.RT.Do(func(amp.Context) {
			for _, e := range s.rep.Node.Applied() {
				ids = append(ids, e.ID.String())
			}
			base = s.rep.Node.Len() - len(ids)
		})
		return clientrpc.Response{OK: true, Order: ids, OrderBase: base, Applied: base + len(ids)}
	case "stat":
		return clientrpc.Response{OK: true, Applied: s.rep.Applied(), Net: node.NetStats(s.rep), Journal: node.JournalStats(s.rep)}
	default:
		return clientrpc.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
