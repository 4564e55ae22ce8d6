package main

// metricDef names one metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatches keeps the two equal.
//
// The driver's contract wants every end-to-end metric from every
// workload, so the gated end-to-end names are four generic ones, and
// each workload says in its README row which of its op classes feeds
// them. The class metrics themselves (write_p50_us, outage_ms,
// shm_exec_s, …) keep their own names as per-layer metrics; -compare
// applies the bounds below to them too.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the old median a metric may worsen by; 0 = not gated by -compare
	e2e    bool    // one of the generic names the driver gates
	exact  bool    // a count that must repeat exactly at the same seed
}

func lower(name, unit string, bound float64) metricDef {
	return metricDef{name: name, unit: unit, better: "lower", bound: bound}
}

func higher(name, unit string, bound float64) metricDef {
	return metricDef{name: name, unit: unit, better: "higher", bound: bound}
}

func exact(name string) metricDef {
	return metricDef{name: name, unit: "count", better: "lower", exact: true}
}

var metricDefs = []metricDef{
	// End to end, generic: gated by the driver on every workload that
	// BENCHMARK.json lists. One bound has to hold on all of them, and
	// on the sizing box — a shared 2-core VM whose speed on memory-bound
	// work changes by up to 1.6x for minutes at a time — the consensus
	// paths moved by up to 16 % between runs, so the driver's bounds
	// are the widest the contract allows; the class metrics below keep
	// the tighter ones for -compare.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, e2e: true},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25, e2e: true},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.25, e2e: true},
	{name: "p90_us", unit: "us", better: "lower", bound: 0.25, e2e: true},

	// End to end, per op class: measured with tracing off on the
	// workloads that have the class, 0 elsewhere.
	lower("fail_share", "share", 0),
	higher("write_ops_s", "1/s", 0.10),
	lower("write_p50_us", "us", 0.10),
	lower("write_p90_us", "us", 0.15),
	higher("lease_read_ops_s", "1/s", 0.10),
	lower("lease_read_p50_us", "us", 0.10),
	lower("lease_read_p90_us", "us", 0.15),
	higher("quorum_read_ops_s", "1/s", 0.10),
	lower("quorum_read_p50_us", "us", 0.10),
	lower("quorum_read_p90_us", "us", 0.15),
	lower("outage_ms", "ms", 0.10),
	higher("failover_write_ops_s", "1/s", 0.10),
	higher("jobs_s", "1/s", 0.10),
	lower("job_p50_ms", "ms", 0.10),
	higher("shm_exec_s", "1/s", 0.10),
	higher("flp_configs_s", "1/s", 0.10),
	higher("check_ops_s", "1/s", 0.10),
	higher("sim_events_s", "1/s", 0.10),

	// host: the share of CPU time the hypervisor took during the run,
	// and the runs measured again because it took too much.
	lower("host.steal_share", "share", 0),
	lower("host.runs_discarded", "count", 0),

	// client: the generator's own view.
	lower("client.write_p99_us", "us", 0),
	lower("client.lease_read_p99_us", "us", 0),
	lower("client.quorum_read_p99_us", "us", 0),
	lower("client.job_p99_ms", "ms", 0),
	lower("client.gen_cpu_share", "share", 0),

	// proc: the daemon processes.
	lower("proc.server_cpu_us_per_op", "us", 0),
	lower("proc.server_rss_mb", "MB", 0),
	lower("proc.setup_retries", "count", 0),

	// clientrpc.
	lower("clientrpc.echo_rtt_us", "us", 0),
	lower("clientrpc.self_us.write", "us", 0),
	lower("clientrpc.self_us.lease_read", "us", 0),
	lower("clientrpc.self_us.quorum_read", "us", 0),

	// kv.
	lower("kv.host.handle_us.write", "us", 0),
	lower("kv.host.handle_us.lease_read", "us", 0),
	lower("kv.host.handle_us.quorum_read", "us", 0),
	lower("kv.wave_self_us", "us", 0),
	higher("kv.engine.batch_writes_per_slot", "count", 0),
	higher("kv.engine.slots_s", "1/s", 0),
	lower("kv.engine.lease_read_ns", "ns", 0),

	// rsm.
	lower("rsm.commit_us", "us", 0),
	lower("rsm.commit_wait_us", "us", 0),
	lower("rsm.handler_busy_us_per_cmd", "us", 0),
	lower("rsm.applied_per_op", "count", 0),
	lower("rsm.journal.records_per_write", "count", 0),
	lower("rsm.journal.bytes_per_write", "B", 0),
	lower("rsm.journal.snapshots", "count", 0),
	lower("rsm.journal.append_us", "us", 0),
	lower("rsm.journal.append_probe_us", "us", 0),
	lower("rsm.journal.install_ms", "ms", 0),
	lower("rsm.journal.recover_ms", "ms", 0),
	exact("rsm.sim.ticks_per_cmd"),
	exact("rsm.sim.msgs_per_cmd"),

	// transport.
	lower("transport.frames_per_cmd", "count", 0),
	lower("transport.wire_frames_per_cmd", "count", 0),
	lower("transport.wire_bytes_per_cmd", "B", 0),
	lower("transport.send_us_per_cmd", "us", 0),
	lower("transport.retries", "count", 0),
	lower("transport.tcp.rtt_us", "us", 0),
	lower("transport.resilient.rtt_us", "us", 0),
	higher("transport.tcp.stream_frames_s", "1/s", 0),
	higher("transport.resilient.stream_frames_s", "1/s", 0),
	lower("transport.clock.tick_delay_us", "us", 0),
	lower("transport.codec.encode_ns", "ns", 0),
	lower("transport.codec.decode_ns", "ns", 0),
	lower("transport.frame.roundtrip_ns", "ns", 0),
	higher("transport.loopback.events_s", "1/s", 0),
	lower("transport.jobq.sent_per_job", "count", 0),
	lower("transport.jobq.retries", "count", 0),
	lower("transport.jobq.shed", "count", 0),

	// jobq.
	lower("jobq.assigns_per_job", "count", 0),
	lower("jobq.stale_per_job", "count", 0),
	lower("jobq.retries", "count", 0),
	lower("jobq.expiries", "count", 0),
	lower("jobq.dead_letters", "count", 0),
	lower("jobq.ticks_per_job", "count", 0),
	lower("jobq.apply_ns", "ns", 0),

	// The verifiers.
	exact("shm.dpor_executions"),
	exact("shm.full_executions"),
	higher("shm.pruning_ratio", "ratio", 0),
	higher("shm.full_exec_s", "1/s", 0),
	exact("flp.dpor_configs"),
	exact("flp.full_configs"),
	higher("flp.pruning_ratio", "ratio", 0),
	higher("flp.full_configs_s", "1/s", 0),
	exact("check.explored_per_op"),
	lower("check.ns_per_op", "ns", 0),
	exact("amp.sim.events"),
	exact("amp.sim.msgs"),
	lower("amp.sim.ns_per_event", "ns", 0),
	lower("round.ns_per_proc_round", "ns", 0),

	// The tracer itself.
	lower("trace.overhead_pct", "%", 0),
	higher("trace.spans", "count", 0),
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return &metricDefs[i]
		}
	}
	return nil
}
