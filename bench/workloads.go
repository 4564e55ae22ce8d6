package main

// workload is one named set of inputs. layers are the per-layer
// measurements that lie on this workload's path; they run only in a
// traced run, after the workload itself.
type workload struct {
	name   string
	why    string // one line; BENCHMARK.json repeats it for the gated ones
	gated  bool   // listed in BENCHMARK.json, so the driver runs and gates it; see README "The host"
	run    func(c *ctx) (*result, error)
	layers []layer
}

// layer is one per-layer measurement group: probes into a module's
// public functions, or the traced pass. It adds metrics to the result
// of the workload it ran after.
type layer struct {
	name string
	run  func(c *ctx, r *result) error
}

var (
	lTraced    = layer{"traced stacks", layerTraced}
	lClientRPC = layer{"clientrpc", layerClientRPC}
	lJournal   = layer{"journal", layerJournal}
	lTransport = layer{"transport", layerTransport}
	lRSMSim    = layer{"rsm on Loopback", layerRSMSim}
	lEngine    = layer{"kv engine", layerEngine}
	lJobqApply = layer{"jobq apply", layerJobqApply}
	lVerify    = layer{"verifiers", layerVerify}
)

var workloads = []*workload{
	{
		name:   "kv-tcp-write",
		why:    "3 basicskv processes, 2 shards, journals on; 2 closed-loop connections, 100% put on 512 keys: the real write path, where timers, transport and journal do the work and kv batching almost none",
		gated:  true,
		run:    runKVWrite,
		layers: []layer{lTraced, lClientRPC, lJournal, lTransport, lRSMSim},
	},
	{
		name:   "kv-tcp-read",
		why:    "same cluster, 100% get, 2 connections: first both at the lease holder (lease reads: clientrpc, JSON, socket), then one at each follower (consensus reads, the gated class); the write path's layers",
		gated:  true,
		run:    runKVRead,
		layers: []layer{lTraced, lClientRPC},
	},
	{
		name:   "kv-tcp-failover",
		why:    "same cluster, unique-key puts at the 2 followers, kill -9 of the leader a third into the window, read-back of every acked key: the fault run; lease TTL, suspicion and election set the outage",
		gated:  true,
		run:    runKVFailover,
		layers: []layer{lTransport, lJournal},
	},
	{
		name:   "kv-inproc-write",
		why:    "kv.Open, 1 shard on the virtual-time Loopback, 32 parked callers, 100% Put on 4096 keys: no sockets, codec or real timers, so kv waves, rsm and Synod CPU do the work; bypass for transport changes",
		run:    runKVInproc,
		layers: []layer{lEngine, lRSMSim},
	},
	{
		name:   "jobq-tcp-steady",
		why:    "5 basicsjobd processes, journals on; 2 closed-loop connections of blocking run requests (cost 2 ms): four consensus commands per job, so scheduler pacing and tick quantisation set the latency",
		gated:  true,
		run:    runJobq,
		layers: []layer{lJobqApply},
	},
	{
		name:   "verify-fixed",
		why:    "rounds of the four verifiers on fixed inputs, serial: shm.Explore and flp.Explore with DPOR at pinned counts, check.Linearizable on a seeded corpus, amp.Sim on the rsm scenario; no daemon code runs",
		run:    runVerify,
		layers: []layer{lVerify},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
