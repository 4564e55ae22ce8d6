// Package amp implements the asynchronous message-passing model of §5 of
// the paper, AMPn,t[∅]: n sequential asynchronous processes, every pair
// connected by a reliable bidirectional channel (no loss, duplication,
// creation, or corruption), with arbitrary-but-finite message delays and
// up to t process crashes.
//
// Two runtimes execute the same Process code, one here and one in
// internal/transport:
//
//   - Sim: a deterministic virtual-time discrete-event simulator. Message
//     delays come from a pluggable DelayModel (fixed Δ, uniform,
//     partially-synchronous with a GST). Virtual time is what lets tests
//     measure the paper's Δ-denominated claims (ABD write = 2Δ, read =
//     4Δ; the fast-read variant's 2Δ) exactly.
//   - transport.Runtime: everything real — the same Process over byte
//     frames on the in-process Loopback, on TCP sockets with a wall
//     clock, under Chaos. It is what the
//     daemons deploy and what runs the protocols on real goroutines
//     under the race detector.
//
// # The calendar-queue event engine
//
// Sim's event queue is a calendar queue (calqueue.go): events due within
// the next calWidth virtual-time units sit in a ring of per-tick buckets,
// so scheduling is an append and dequeuing is an array read, with all
// deliveries that share a timestamp draining from one bucket as a batch;
// only far-future events (pre-GST "arbitrary" delays, long retry timers)
// take the O(log n) overflow-heap path. Event records are pooled and
// reused across deliveries, and per-process rand sources materialize
// lazily from pre-drawn seeds, which together make steady-state
// simulation allocation-free — the difference between E9/E10 at n=5 and
// at n in the thousands. The binary-heap loop it replaced is deleted: the
// answers both engines agreed on are frozen in the ampchatter model's
// per-seed digests (internal/scenario/models/testdata/digests.txt) and in
// equivalence_test.go.
//
// # Adversaries
//
// Adversaries judge messages (adversary.go): WithAdversary composes
// message-drop (NewDropWindow), partition with heal (Partition,
// Isolate) and timing-skew (SkewLinks) adversaries, each carrying its own
// seeded randomness. Process faults are the Sim's CrashAt/KillAt/
// RecoverAt. A crash window (CrashAt … RecoverAt) is a pause, as of a
// SIGSTOP'd daemon: its timers fire at recovery, in due order, and the
// messages that arrived meanwhile are lost. KillAt + Replace is the
// amnesia path. ClockRate runs one process's clock fast or slow inside a
// window: its Now() and its timers count its own ticks, which is the
// fault a read lease's margin must cover (every other process reads
// global time). accounting_test.go pins the message counts.
//
// # How E8–E13 map onto the simulator
//
//   - E8 (reliable broadcast): CrashAfterSends truncates a broadcast
//     mid-send; the all-or-none sweep runs one Sim per crash prefix.
//   - E9 (ABD): FixedDelay Δ gives the 2Δ/4Δ latencies; an AdversaryFunc or
//     Partition realizes the t >= n/2 liveness loss and the
//     partition+heal scenarios; the scale row drives n=2048 registers.
//   - E10 (TO-broadcast/RSM): rsm.Node stacks (Ω + TO + Synod slots) run
//     at n=5 with a crash and at n=1024 under stretched heartbeats.
//   - E11 (Ben-Or): per-process Rand supplies the coin; Isolate bounds
//     the loss to at most t processes for termination-under-drops tests.
//   - E12 (Ω): GSTDelay models partial synchrony; Partition+heal forces
//     re-election and restoration.
//   - E13 (indulgent consensus): Synod over Ω decides after GST — or
//     after a NewDropWindow closes — and stays safe under permanent loss.
package amp

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in abstract units (the simulator's clock).
type Time int64

// Message is an opaque protocol payload.
type Message any

// Context is what a process may do from inside a handler. Handlers run
// atomically with respect to each other (the actor model): a process is
// sequential, per the paper's model.
type Context interface {
	// ID returns this process's identity in [0, N).
	ID() int
	// N returns the number of processes.
	N() int
	// Now returns the current virtual time.
	Now() Time
	// Send queues msg for delivery to process `to` after the network's
	// chosen delay. A message to self is a step of the sending turn: it
	// is delivered once the current handler or event returns, FIFO,
	// with no delay and no network fault, unless the process has
	// crashed or halted by then.
	Send(to int, msg Message)
	// Broadcast sends msg to every process, including the sender (the
	// paper's "send to all" convention: a broadcaster delivers to itself).
	// The n sends are individually subject to crash truncation: a process
	// that crashes mid-broadcast reaches only a prefix of destinations.
	Broadcast(msg Message)
	// SetTimer schedules OnTimer(id) after d time units. Timers are
	// one-shot; re-arm in the handler for periodic behavior.
	SetTimer(d Time, id int)
	// Rand returns this process's deterministic random source.
	Rand() *rand.Rand
	// Halt marks the process as voluntarily finished: it stops receiving
	// messages and timers. (Distinct from a crash, which is injected by
	// the harness.)
	Halt()
}

// Process is an asynchronous message-passing protocol endpoint.
type Process interface {
	// Init runs once before any message is delivered.
	Init(ctx Context)
	// OnMessage handles one delivered message.
	OnMessage(ctx Context, from int, msg Message)
	// OnTimer handles a timer expiry.
	OnTimer(ctx Context, id int)
}

// DelayModel chooses the delivery delay of each message between two
// processes. Implementations must be deterministic given their seeds.
type DelayModel interface {
	// Delay returns the delivery delay for a message sent from src to dst
	// at virtual time at. It must be >= 1.
	Delay(src, dst int, at Time, rng *rand.Rand) Time
}

// FixedDelay delivers every message after exactly D units — the paper's
// "each message takes Δ time units" measurement convention for ABD.
type FixedDelay struct{ D Time }

// Delay implements DelayModel.
func (f FixedDelay) Delay(_, _ int, _ Time, _ *rand.Rand) Time {
	if f.D < 1 {
		return 1
	}
	return f.D
}

// UniformDelay delivers after a uniform random delay in [Min, Max].
type UniformDelay struct{ Min, Max Time }

// Delay implements DelayModel.
func (u UniformDelay) Delay(_, _ int, _ Time, rng *rand.Rand) Time {
	lo, hi := u.Min, u.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + Time(rng.Int63n(int64(hi-lo)+1))
}

// GSTDelay models partial synchrony (§5.3's "restrict the asynchrony"
// approach, [21, 22]): before the Global Stabilization Time messages take
// arbitrary delays in [BeforeMin, BeforeMax]; from GST on, delays are
// bounded by [AfterMin, AfterMax]. Eventual-leader failure detectors (Ω)
// are implementable exactly because such a GST exists.
type GSTDelay struct {
	GST                  Time
	BeforeMin, BeforeMax Time
	AfterMin, AfterMax   Time
}

// Delay implements DelayModel.
func (g GSTDelay) Delay(src, dst int, at Time, rng *rand.Rand) Time {
	if at >= g.GST {
		return UniformDelay{Min: g.AfterMin, Max: g.AfterMax}.Delay(src, dst, at, rng)
	}
	return UniformDelay{Min: g.BeforeMin, Max: g.BeforeMax}.Delay(src, dst, at, rng)
}

// DelayFunc adapts a function to DelayModel.
type DelayFunc func(src, dst int, at Time, rng *rand.Rand) Time

// Delay implements DelayModel.
func (f DelayFunc) Delay(src, dst int, at Time, rng *rand.Rand) Time {
	return f(src, dst, at, rng)
}

// Validate panics unless 0 <= t < n (internal invariant guard).
func validatePID(pid, n int) {
	if pid < 0 || pid >= n {
		panic(fmt.Sprintf("amp: process id %d out of range [0,%d)", pid, n))
	}
}
