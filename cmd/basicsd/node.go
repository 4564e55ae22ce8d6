package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/kv"
	"distbasics/internal/node"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// server is one running basicsd node: the shared replica skeleton
// (internal/node: TCP(+Chaos)→Runtime under an rsm replica,
// journaled), the shared KV front end (kv.Replica: submit-and-wait plus
// the put/del/get verbs — no lease is configured here, so a get is
// always a consensus no-op read at its apply point) and this daemon's
// own verbs behind the line-JSON client RPC front end
// (internal/clientrpc: a goroutine per connection, about 9 KB while it
// idles, and a bound on concurrently running handlers).
type server struct {
	id  int
	rep *node.Replica
	kv  *kv.Replica
	rpc *clientrpc.Server

	boot   int64 // uid epoch: distinguishes restarts of the same id
	uidSeq atomic.Int64
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
	var err error
	s.rep, err = cfg.Start(id, transport.NewRealClock(transport.DefaultUnit), func(_ *node.Replica, opts ...rsm.NodeOption) *rsm.Node {
		nd := rsm.NewNode(len(cfg.Peers), opts...)
		s.kv = kv.NewReplica(nd)
		return nd
	})
	if err != nil {
		return err
	}
	s.kv.Bind(s.rep.RT) // only client calls use it, and the RPC server is not up yet
	if s.rpc, err = clientrpc.NewServer(cfg.Clients[id], s.handle); err != nil {
		s.rep.Close()
		return fmt.Errorf("client listen %s: %w", cfg.Clients[id], err)
	}
	log.Printf("basicsd: node %d up: peers=%s clients=%s journal=%s",
		id, s.rep.Addr(), s.rpc.Addr(), cfg.Journals[id])
	select {} // crash-stop: run until killed
}

// handle serves one client request; it runs on a clientrpc pool
// worker, so blocking on a consensus round-trip here is what the
// pool's bound admission-controls. Requests on one connection are
// served sequentially (a client is one logical process; its history
// must be sequential anyway) — clientrpc guarantees per-connection
// FIFO.
func (s *server) handle(req clientrpc.Request) clientrpc.Response {
	if resp, ok := s.kv.Serve(req); ok {
		return resp // put, del, get
	}
	switch req.Op {
	case "bcast":
		// Total-order broadcast of an order-only message: the command
		// touches no KV state but lands in every replica's applied
		// sequence exactly once, in the same position.
		if _, err := s.kv.Submit(rsm.Command{Op: "bcast", Key: req.Key}); err != nil {
			return clientrpc.Response{Err: err.Error()}
		}
		return clientrpc.Response{OK: true}
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
