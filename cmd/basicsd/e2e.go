package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/check"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
)

// e2eOptions parameterize the kill -9 survival demo: the shared cluster
// shape plus this daemon's workload size.
type e2eOptions struct {
	node.E2EOptions
	OpsPer int // KV ops per client (default 24; <= check.MaxOps per key)
}

func (o e2eOptions) withDefaults() (e2eOptions, error) {
	var err error
	if o.E2EOptions, err = o.E2EOptions.WithDefaults("basicsd"); err != nil {
		return o, err
	}
	if o.OpsPer <= 0 {
		o.OpsPer = 24
	}
	if o.OpsPer > check.MaxOps {
		return o, fmt.Errorf("%d ops per client exceeds checker bound %d", o.OpsPer, check.MaxOps)
	}
	return o, nil
}

// runE2E is the headline demo: an n-node TCP cluster under chaos runs
// linearizable-KV, total-order broadcast, and unique-ID workloads;
// mid-campaign a minority of nodes is killed with SIGKILL and later
// restarted from their journals; afterwards the histories must
// linearize, the replicas' applied orders must agree (with every entry
// exactly once), and every issued ID must be unique.
func runE2E(opt e2eOptions) (err error) {
	opt, err = opt.withDefaults()
	if err != nil {
		return err
	}
	log.Printf("e2e: %d nodes, %d clients x %d ops, kill %d, chaos=%v, dir=%s",
		opt.Nodes, opt.Clients, opt.OpsPer, opt.Kill, opt.Chaos, opt.Dir)

	cfg, err := opt.Config()
	if err != nil {
		return err
	}
	cl, err := node.Launch(opt.E2EOptions, cfg, cfg.Clients, "id")
	if err != nil {
		return err
	}
	defer cl.StopAll()
	log.Printf("e2e: cluster up")

	// --- workloads -------------------------------------------------------
	rec := check.NewRecorder()
	var completed atomic.Int64 // completed KV ops, drives the kill schedule
	var kvWG sync.WaitGroup
	kvDone := make(chan struct{})

	for ci := 0; ci < opt.Clients; ci++ {
		ci := ci
		kvWG.Add(1)
		go func() {
			defer kvWG.Done()
			key := fmt.Sprintf("k%d", ci)
			at := ci % opt.Nodes
			if ci == opt.Clients-1 && opt.Kill > 0 {
				// One client submits to a kill victim, so client-visible
				// recovery (timeout -> pending -> reconnect to the
				// restarted process) is part of the demo.
				at = opt.Nodes - 1
			}
			rpc := clientrpc.NewClient(cfg.Clients[at])
			defer rpc.Close()
			// gen is bumped after every failed op: the op stays pending
			// (it may or may not have taken effect — either is consistent
			// with a pending op), and since a history process may not
			// invoke past a pending op, the client continues under a
			// fresh process id.
			gen := 0
			for op := 0; op < opt.OpsPer; op++ {
				proc := ci + opt.Clients*gen
				var err error
				if op%3 == 2 {
					inv := rec.Call(proc, check.KeyedOp{Key: key, Op: check.ReadOp{}})
					var v any
					if v, err = rpc.Get(key, node.RPCTimeout); err == nil {
						inv.Return(v)
					}
				} else {
					val := 1 + op + ci*1000
					inv := rec.Call(proc, check.KeyedOp{Key: key, Op: check.WriteOp{V: val}})
					if err = rpc.Put(key, val, node.RPCTimeout); err == nil {
						inv.Return(nil)
					}
				}
				if err == nil {
					completed.Add(1)
				} else {
					gen++
				}
				time.Sleep(time.Duration(10+ci*7) * time.Millisecond)
			}
		}()
	}

	// Unique-ID workload: hammer every node for IDs concurrently with
	// the KV traffic; errors are skipped (uniqueness, not liveness, is
	// the property under test).
	uids := make(map[string]int)
	var uidMu sync.Mutex
	var uidWG sync.WaitGroup
	for i := 0; i < opt.Nodes; i++ {
		i := i
		uidWG.Add(1)
		go func() {
			defer uidWG.Done()
			rpc := clientrpc.NewClient(cfg.Clients[i])
			defer rpc.Close()
			for {
				select {
				case <-kvDone:
					return
				default:
				}
				if id, err := rpc.UID(2 * time.Second); err == nil {
					uidMu.Lock()
					uids[id]++
					uidMu.Unlock()
				} else {
					rpc.Close()
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}

	// Broadcast workload: every node TO-broadcasts a few order-only
	// messages concurrently with the KV traffic. Completion means the
	// message sits in the issuing replica's applied sequence; the
	// post-run order checks then prove it sits in *every* replica's
	// sequence, exactly once, at the same position.
	var bcastOK atomic.Int64
	var bcastWG sync.WaitGroup
	const bcastPer = 4
	for i := 0; i < opt.Nodes; i++ {
		i := i
		bcastWG.Add(1)
		go func() {
			defer bcastWG.Done()
			rpc := clientrpc.NewClient(cfg.Clients[i])
			defer rpc.Close()
			for b := 0; b < bcastPer; b++ {
				if err := rpc.Bcast(fmt.Sprintf("n%d-m%d", i, b), node.RPCTimeout); err == nil {
					bcastOK.Add(1)
				} else {
					rpc.Close()
				}
				time.Sleep(150 * time.Millisecond)
			}
		}()
	}

	// --- the kill -9 schedule -------------------------------------------
	// Victims are the highest-numbered nodes (no client submits there
	// by construction when Clients <= Nodes-Kill, but their loss still
	// removes acceptors from every quorum).
	total := int64(opt.Clients * opt.OpsPer)
	victims := make([]int, 0, opt.Kill)
	for k := 0; k < opt.Kill; k++ {
		victims = append(victims, opt.Nodes-1-k)
	}
	killErr := make(chan error, 1)
	go func() {
		waitFor := func(threshold int64) bool {
			for completed.Load() < threshold {
				select {
				case <-kvDone:
					return false
				default:
					time.Sleep(25 * time.Millisecond)
				}
			}
			return true
		}
		if opt.Kill == 0 {
			killErr <- nil
			return
		}
		waitFor(total / 3)
		for _, v := range victims {
			log.Printf("e2e: kill -9 node %d", v)
			cl.Kill9(v)
		}
		// Let the survivors make progress without the victims, then
		// restart from the journals.
		if waitFor(2 * total / 3) {
			time.Sleep(500 * time.Millisecond)
		}
		log.Printf("e2e: restart nodes %v", victims)
		killErr <- cl.Restart(victims, 15*time.Second)
	}()

	kvWG.Wait()
	close(kvDone)
	uidWG.Wait()
	bcastWG.Wait()
	err = <-killErr
	var orders [][]string
	var bases []int
	if err == nil {
		log.Printf("e2e: workload done: %d/%d kv ops completed, %d/%d broadcasts delivered, %d uids issued",
			completed.Load(), total, bcastOK.Load(), opt.Nodes*bcastPer, len(uids))
		// Every node converges to the same absolute applied count (the
		// restarted victims catch up via anti-entropy). A victim that
		// recovered from a snapshot only retains the suffix past the
		// snapshot's coverage; bases[i] is that suffix's start position.
		orders, bases, err = collectOrders(cl.Clients)
	}
	h := rec.History()
	partitions := 0
	if err == nil {
		partitions, err = verify(h, orders, bases, uids)
	}
	if err == nil && opt.Compact {
		err = cl.CheckJournals()
	}
	if err != nil {
		dumpArtifacts(cl, h, orders, bases)
		return cl.Fail(err)
	}
	cl.LogStats()
	log.Printf("e2e: PASS — %d ops linearizable over %d partitions, %d nodes agree on %d applied entries, %d unique ids",
		len(h), partitions, opt.Nodes, len(orders[0]), len(uids))
	cl.Passed()
	return nil
}

// verify checks the campaign's safety claims on what the run recorded
// and returns how many per-key partitions the history split into.
func verify(h check.History, orders [][]string, bases []int, uids map[string]int) (int, error) {
	// 1. Total order safety: all applied orders agree at every absolute
	//    position both retain.
	for i := 1; i < len(orders); i++ {
		lo := max(bases[0], bases[i])
		hi := min(bases[0]+len(orders[0]), bases[i]+len(orders[i]))
		for a := lo; a < hi; a++ {
			if orders[0][a-bases[0]] != orders[i][a-bases[i]] {
				return 0, fmt.Errorf("nodes 0 and %d diverge at applied index %d: %s vs %s",
					i, a, orders[0][a-bases[0]], orders[i][a-bases[i]])
			}
		}
	}
	// 2. Broadcast exactly-once: no entry (KV command or broadcast
	//    message) appears twice in the applied sequence — retries and
	//    chaos duplicates must be absorbed by idempotent apply. Node 0
	//    is never killed, so it retains the full sequence.
	if bases[0] != 0 {
		return 0, fmt.Errorf("node 0 was never restarted but reports applied base %d", bases[0])
	}
	seen := make(map[string]bool, len(orders[0]))
	for _, id := range orders[0] {
		if seen[id] {
			return 0, fmt.Errorf("entry %s applied twice (broadcast exactly-once violated)", id)
		}
		seen[id] = true
	}
	// 3. Unique IDs really are unique.
	for id, n := range uids {
		if n > 1 {
			return 0, fmt.Errorf("uid %q issued %d times", id, n)
		}
	}
	// 4. The KV history linearizes (per-key partitions).
	spec := check.RegisterArraySpec{}
	lin, err := check.Linearizable(spec, h)
	if err != nil {
		return 0, fmt.Errorf("checker: %w", err)
	}
	if !lin.OK {
		return 0, fmt.Errorf("history of %d ops is NOT linearizable", len(h))
	}
	if err := check.ValidateOrder(spec, h, lin.Order); err != nil {
		return 0, fmt.Errorf("witness invalid: %w", err)
	}
	return lin.Partitions, nil
}

// collectOrders polls every node until all report the same absolute
// applied count (quiesced + caught up), then returns the retained
// orders and each node's applied base (non-zero after a recovery from
// a snapshot).
func collectOrders(clients []string) ([][]string, []int, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		orders := make([][]string, len(clients))
		bases := make([]int, len(clients))
		ok := true
		for i, addr := range clients {
			rpc := clientrpc.NewClient(addr)
			o, base, err := rpc.Order(5 * time.Second)
			rpc.Close()
			if err != nil {
				ok = false
				break
			}
			orders[i], bases[i] = o, base
		}
		if ok {
			same := true
			for i := 1; i < len(clients); i++ {
				if bases[i]+len(orders[i]) != bases[0]+len(orders[0]) {
					same = false
					break
				}
			}
			if same {
				return orders, bases, nil
			}
		}
		if time.Now().After(deadline) {
			if !ok {
				return nil, nil, fmt.Errorf("nodes unreachable while collecting applied orders")
			}
			return orders, bases, fmt.Errorf("applied counts did not converge within 30s")
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// dumpArtifacts writes the recorded history and applied orders next to
// the node logs and journals so a failure is diagnosable.
func dumpArtifacts(cl *node.Cluster, h check.History, orders [][]string, bases []int) {
	var sb []byte
	for _, op := range h {
		sb = append(sb, fmt.Sprintf("p%d %v @[%d,%d] -> %v\n", op.Proc, op.Arg, op.Call, op.Return, op.Out)...)
	}
	cl.Artifact("history.log", sb)
	var ob []byte
	for i, o := range orders {
		base := 0
		if i < len(bases) {
			base = bases[i]
		}
		ob = append(ob, fmt.Sprintf("node%d (base=%d, %d): %v\n", i, base, len(o), o)...)
	}
	cl.Artifact("orders.log", ob)
}
