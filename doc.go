// Package distbasics is an executable companion to Michel Raynal's
// invited tutorial "A Look at Basics of Distributed Computing" (IEEE
// ICDCS 2016): every model the paper defines is a substrate, every
// algorithm it cites is an implementation, and every quantitative claim
// is an experiment.
//
// The library lives under internal/ (the sections below are its
// inventory, one per engine; go run ./cmd/basicsbench -list is the
// experiments'); the public surface is the examples/ programs, the cmd/basicsbench
// claim-vs-measured harness (experiments E0–E16), the three daemons, and
// the one benchmark, bench/.
//
// # Definitions no engine runs
//
// Three packages state a definition of the paper and check it with their
// own tests, and no engine, model or daemon builds on them, so each has
// exactly one non-test importer, cmd/basicsbench, whose experiments
// measure them: internal/core (§2's task — input vectors, output vectors
// and the relation T — and the model descriptors; E0), internal/central
// (§2.4's centralized solution to any task, which blocks once the
// coordinator crashes; E0) and internal/procadv (§5.4's process
// adversaries, the core/survivor-set duality and the A-resilient gather
// harness; E15). They stay packages: folded into cmd/basicsbench they
// would be an experiment's private helpers with no test of their own,
// and folded into an engine package they would be code the engine never
// calls.
//
// # The synchronous round engine
//
// The synchronous experiments (E1–E3 and the LOCAL-model examples) run on
// internal/round, an engine rebuilt for scale: pooled slice-backed
// mailboxes reused across rounds, per-System cached adversary digraphs (the adv:∅ fast path
// never builds a graph at all, and the madv adversaries refill one scratch
// digraph per round), and a quiescent-round skip, with no allocation per
// round. It has one execution path, a loop over the processes per phase.
// See the internal/round package documentation for the architecture;
// tests in that package pin its Results to digests of seeded workloads,
// and to Results recorded on the seed engine and on the map-mailbox path
// the slots replaced.
//
// # The asynchronous simulator
//
// The asynchronous experiments (E8–E16) run on internal/amp's virtual-time
// simulator, rebuilt the same way: a calendar queue with pooled event
// records replaces the per-message binary heap (same-timestamp deliveries
// drain as batches; steady-state simulation allocates nothing per
// message), and a pluggable Adversary interface (message drop, partition
// with heal, timing skew) replaces ad-hoc network-fault hooks; process
// faults are the simulator's crash windows (a pause) and kills.
// That is what lets E9 run ABD registers at n=2048 and E10 the replicated
// state machine at n=1024. The rewrite is fenced three ways: the delivery
// orders the replaced heap gave on hundreds of seeded adversarial
// scenarios, frozen as the ampchatter model's digests before the heap
// was deleted, schedule-fuzzed ABD histories checked by
// internal/check's linearizability checker, and termination/agreement
// property tests for Ben-Or and indulgent consensus under drop
// adversaries. See the internal/amp package documentation for the
// architecture and the E8–E13 mapping.
//
// # The shared-memory scheduler and exhaustive explorer
//
// The asynchronous shared-memory experiments (E4–E7) run on internal/shm,
// whose controlled scheduler was rebuilt as a persistent coroutine arena:
// one coroutine per process reused across executions, a handshake of
// plain per-process slot fields plus a single coroutine switch per
// decision (batched grants run consecutive same-process steps with no
// handshake at all), and a bitset enabled set with a lazily rebuilt
// sorted view. The exhaustive explorer — the machinery behind the
// consensus-hierarchy table of E4 — executes once per complete schedule,
// recording the enabled set at every decision point so sibling branches
// are enumerated without re-executing interior tree nodes, in one
// depth-first search on the calling goroutine. The seed
// engine and explorer are deleted; the outcomes, execution counts and
// violation schedules they agreed on are frozen in the shmexec and
// shmexplore models' digests and in pinned tests. The speedup (more than an order of magnitude per explored execution in E4)
// is spent on scale: uncapped register-violation search, exhaustive n=3
// hierarchy entries with two crashes, the universal construction at n=8
// with 64 ops per process, and obstruction-free k-set agreement at n=64.
//
// # The verification engines
//
// Two engines verify the engines above rather than execute anything
// themselves, and both were rebuilt for scale. internal/check's
// Wing–Gong/Lowe linearizability checker — the correctness condition of
// §4's atomic objects — precomputes per-operation predecessor bitmasks
// (O(1) minimality tests), memoizes (mask, state) search nodes through
// tiered equality (maphash over spec-provided canonical fingerprints,
// an open-addressing table for directly comparable states, reflect as
// the legacy fallback), runs an explicit-stack DFS over pooled engines,
// and — via optional Partitioner specs — splits multi-key histories
// into independent per-key sub-checks across a worker pool, lifting the
// 63-operation cap to 63 per partition. internal/flp's exhaustive
// explorer — the FLP impossibility of §2.4/§5.1 made executable —
// identifies configurations by canonical binary encodings over interned
// states, and explores copy-on-write with undo instead of cloning, in one
// depth-first search on the calling goroutine. The seed checker survives
// (check.LinearizableLegacy) as the oracle of randomized equivalence
// property tests — identical verdicts, witness orders and explored-state
// counts — because it is the only second opinion on linearizability.
// The seed flp explorer is deleted; the configuration counts it agreed on
// are frozen in the flp model's digests and a pinned table. Every linearization
// witness the suite produces replays through check.ValidateOrder. The
// speedup funds the fences: schedule-fuzzed multi-register ABD and RSM
// histories and universal-construction KV histories of 200+ operations
// check per key, and E16 classifies wait-majority valences at n=4
// (a configuration space two orders beyond the seed's n=3 entry).
//
// Both explorers additionally support dynamic partial-order reduction
// (shm.ExploreOpts.DPOR, flp.Options.DPOR): steps on disjoint shared
// objects and deliveries to different processes commute, so sleep-set
// pruning visits one execution per equivalence class of reorderings
// instead of all of them — the n=4 consensus-hierarchy rows run at 17x
// fewer executions (3472 vs 58920 for CAS with three crashes) and
// wait-majority n=4 at 3x fewer configurations (39425 vs 118357),
// which is what makes those instances exhaustible at all. In neither
// package is the reduction a second search: there is one sleep-set
// search (in internal/flp over one mask-carrying seen-table, in
// internal/shm one leaf-only DFS over one engine extension), each
// serial, and full enumeration is that search with nothing put to
// sleep (see the flp package comment and shm/dpor.go). In internal/shm
// full enumeration also keeps the seed explorer's child order — step p,
// crash p, ascending — for the schedule-equality fences, where the
// reduction takes steps before crashes. The reduction is fenced
// differentially: randomized program families run under full
// enumeration and DPOR, requiring identical violation presence,
// replayable violation schedules, no more executions than the full
// search, and full-search answers equal to the deleted seed explorers'
// (pinned digests); the fences are
// mutation-verified by wiring deliberately-wrong dependence relations
// and requiring the fences to catch them.
//
// # The scenario harness
//
// All of the fences above run on one engine: internal/scenario, a
// seed-deterministic scenario DSL that generates adversarial runs
// (crashes and recoveries, partitions and heals, message loss, timing
// skew, explicit schedule choices) from a single uint64 seed and drives
// any execution model through small adapters (internal/scenario/models:
// abd, abdmulti, rsm, jobq, transport, benor, universal, ampchatter,
// shmexec, shmexplore, check, flp, dynnet, madv). Each
// adapter checks an oracle — linearizability via internal/check,
// agreement/validity predicates, invariants that share no code with the
// engine (balanced message and step books), or full search against its
// reduction — and replay is byte-stable: the same scenario always produces
// the identical trace and verdict, which determinism tests assert per
// adapter. Each run's Result has a digest (the sha256 of its verdict,
// counts and trace), and internal/scenario/models/testdata/digests.txt
// holds it for seeds 1–120 of every model: written by
//
//	go run ./cmd/basicsfuzz -models=all -seeds=120 -digests-out=internal/scenario/models/testdata/digests.txt
//
// and checked by CI with git diff, so a change that moves any model's
// answers shows as the list of moved seeds. It is also where the deleted
// seed engines' answers live (see the models package). The harness
// is mutation-verified: deliberately weakened algorithms (an ABD read
// quorum below majority, a Ben-Or coin that ignores phase-2 reports)
// are caught by the oracles and shrunk to pinned minimal reproducers.
//
// There is one campaign loop, scenario.Campaign: it runs a contiguous
// seed range, summarizes each run into coverage signatures (trace-line
// shapes, the fault-kind combination, completed operations per process
// count), keeps coverage-novel scenarios in a corpus, and then spends
// its Mutants budget (basicsfuzz -mutants) on sub-stream-seeded DSL
// edits of corpus entries — with no mutants it is plain independent-seed
// sampling. At equal run budgets the mutating campaign reaches coverage
// sampling does not (asserted in a test); mutants stay first-class
// reproducers — Encode/Decode round-trip, ddmin shrinking, byte-stable
// replay all intact. A model that panics on a run fails that run
// ("panic: …") and is shrunk like any oracle failure.
//
// # Reproducing a failure
//
// Every randomized-test failure reports through scenario.Reportf, which
// prints the exact replay invocation:
//
//	go run ./cmd/basicsfuzz -model=abd -seed=1234 -v
//
// That regenerates the scenario from the seed and re-runs it verbosely.
// To minimize a failure, basicsfuzz shrinks it by delta debugging —
// removing operations, fault events, and schedule entries while the
// oracle keeps failing — and writes the result as an encoded scenario
// file replayable with -replay=FILE and pinnable as a Go literal
// (Scenario.GoLiteral). Longer campaigns run via
//
//	go run ./cmd/basicsfuzz -models=all -seeds=500 -out=repro/
//
// and the native Go fuzz targets (FuzzCheckerEquivalence in
// internal/check, FuzzCodecRoundTrip in internal/transport) expose the
// checker's equivalence and the frame codec to `go test -fuzz`, with
// seed corpora under each package's testdata/fuzz. CI runs a short
// smoke of each target on every PR and a nightly large-budget campaign
// across all models, uploading any found reproducers as artifacts.
//
// # Running a real cluster
//
// Everything above runs in virtual time; internal/transport and
// cmd/basicsd take the same protocol stacks onto real sockets. An
// amp.Process has exactly two runtimes: amp.Sim, the deterministic lab,
// and transport.Runtime, which adapts any Transport backend —
// deterministic in-process Loopback, length-prefixed TCP, or a
// fault-injecting Chaos wrapper — to amp.Context, so the
// abd/rbcast/mpcons/rsm processes run unmodified over real concurrency,
// on one of two clocks (Loopback's virtual one, or transport.RealClock).
// TCP keeps the simulator's contract that a send never waits: Send
// frames into a bounded per-peer buffer and returns, and one writer
// goroutine per peer dials, writes everything buffered in one writev,
// and redials a refused peer (a peer restarting) with backoff. A full
// buffer sheds the frame, counted; a failed write loses its batch.
// Nothing is acknowledged or retransmitted: a frame lost is recovered
// by the protocols, which the simulator already runs over lossy
// channels (see the internal/transport package docs for the precise
// guarantees).
//
// The three daemons below — basicsd, basicskv, basicsjobd — are one
// node skeleton with three state machines plugged in. internal/node
// owns, once, what each of them needs to carry a replica onto sockets:
// the JSON cluster file (peers/clients/journals, and the chaos schedule
// and compaction threshold the kill -9 harness writes — clock unit,
// batching, leases and queue policy are constants; an unknown key fails
// the load), the bring-up (open journal →
// recover → TCP → Chaos → Runtime → start), the stat counters, the
// submit-then-wait-for-local-apply table behind every client write,
// and the subprocess harness (spawn, kill -9, restart, bounded-journal
// assertion) that the kill -9 tests of all three run on. A daemon's own
// code is its verb table and, for the e2es, a workload and a verifier.
//
// To run a node of a real cluster, write a JSON config listing every
// node's transport address, client-RPC address, and journal path, then
// start one process per id:
//
//	basicsd serve -config cluster.json -id 0
//
// Clients speak line-delimited JSON on the node's client port:
// {"op":"put","key":"x","val":1}, {"op":"get","key":"x"} (a
// linearizable read: the get rides through consensus and is answered at
// its apply point), {"op":"uid"} (consensus-free unique IDs),
// {"op":"order"} (the replica's applied sequence), {"op":"stat"}
// (applied count plus transport and journal counters). The journal
// makes a node safe to kill -9: on restart it replays its Paxos
// acceptor state and decided slots, then catches up on missed decisions
// via the TO-broadcast anti-entropy fetch, as a live replica does when
// its peers' frontier gossip shows it missed one. The journal does not
// grow without bound: once it passes a records or bytes threshold
// (internal/rsm's defaults; compact_records in the config lowers the
// first, as the e2e does) the node snapshots its full applied
// state and truncates the journal to the suffix past the snapshot, via
// a crash-safe install protocol (write snapshot.tmp, fsync, atomic
// rename, fresh journal segment, delete old segment) that recovers to
// the old or the new snapshot — never a hybrid — no matter where a
// kill -9 lands. Recovery then restores the snapshot and replays only
// the suffix. The whole lifecycle is packaged as a self-contained demo —
//
//	basicsd e2e
//
// — which spawns a local 5-node TCP cluster, runs linearizable-KV and
// unique-ID workloads under link chaos, forces continuous compaction,
// SIGKILLs a minority mid-campaign (landing around live snapshot
// installs), restarts it from the journals, and verifies that the
// histories linearize (internal/check), the replicas agree on one
// applied order, every issued ID is unique, and every journal stayed
// strictly smaller than its lifetime append volume. CI runs it on
// every PR.
// The same stack minus the sockets is fuzzed deterministically by the
// scenario harness's transport model (seeded chaos schedules plus
// crash/restart faults over Loopback).
//
// # Serving a KV workload
//
// cmd/basicskv and internal/kv turn the universal construction into a
// production-shaped store: the key space is partitioned by a sorted
// key-range map into independent shards, each its own 3-replica rsm
// group, so per-key linearizability composes into a linearizable map
// while shards scale throughput. Client writes are staged in waves and
// ride the rsm proposer's batching (up to MaxBatch commands per
// consensus slot, one slot open at a time); reads are
// served locally at a shard's leader while it holds the
// majority-granted read lease (internal/fd) — acceptors drop rival
// ballots while a grant is live, so no write can commit that the
// leaseholder has not applied — and fall back to a consensus no-op
// read whenever the lease is not live. In-process shards run over the
// deterministic Loopback network in virtual time, pumped only while
// client operations are in flight and using the transport's value fast
// path (no byte codec); a multi-process cluster runs the same engine
// over TCP:
//
//	basicskv serve -config kv.json -self 0
//
// Its load benchmark is the repository's one benchmark, `bash
// bench/run.sh` (bench/README.md): closed-loop write, lease-read,
// consensus-read and kill -9 failover workloads against three serve
// processes, plus an in-process write workload, each with sampled
// per-key prober histories run through the partitioned linearizability
// checker. See cmd/basicskv's README for the sharding map, the batching
// and lease constants, lease semantics, and fallback conditions. A subprocess test
// kills -9 one of three serve processes, restarts it from its journals
// and reads every acknowledged key back through it. The batching
// invariants under it are fuzzed by the scenario harness's rsm model
// (exactly-once apply, identical applied order across replicas,
// batching evidence on benign seeds); no model runs internal/kv yet.
//
// # Running a job queue
//
// internal/jobq and cmd/basicsjobd build a crash-resilient distributed
// job queue on the same replicated state machine: every node is at once
// a queue replica, a scheduler candidate, and a worker. The design
// splits replicated truth from leader-local policy. Job records,
// attempt counters, worker membership, and completion effects live in
// the replicated state, where apply-time validation of a per-attempt
// idempotency token (the attempt number a worker's Complete/Fail must
// echo) enforces exactly-once completion no matter how many duplicate
// or stale reports race in. Timing policy — the lease grace that
// declares a continuously-suspected worker dead (fd.SuspectedSince),
// and the jittered exponential backoff between a job's attempts — is
// read against the acting Ω leader's own clock and never needs clock
// agreement; a failover leader re-derives it from its own detector and
// seed. Jobs whose attempt budget is exhausted are dead-lettered (the
// poison-job escape hatch). Every command is proposed once: the rsm
// layer re-sends a payload until it is ordered, and the duplicates that
// remain (a restarted worker re-executing an attempt) are harmless,
// because the first command in the total order wins and the rest are
// counted as stale rejections, never second effects.
//
//	basicsjobd serve -config cluster.json -id 0
//	basicsjobd e2e
//
// (Throughput and job latency are the jobq-tcp-steady workload of
// `bash bench/run.sh`.)
//
// The e2e demo SIGKILLs a minority including node 0 — the Ω leader,
// i.e. the acting scheduler — mid-campaign while forced compaction
// keeps every journal snapshotting, restarts the victims from
// snapshot + suffix, and verifies no job is lost, every completion
// happened exactly once, poison jobs sit dead-lettered at their
// budget, all replicas agree on every record, and every journal stayed
// bounded; CI runs it on every PR. The same scheduler,
// runner, and oracles are fuzzed deterministically by the scenario
// harness's jobq model. See cmd/basicsjobd's README for the state
// machine, the policy constants, and the congestion lesson baked into
// them.
package distbasics
