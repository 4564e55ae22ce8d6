// Package transport is the repository's real-network runtime, the
// second of the two runtimes an amp.Process has: the same Process code
// that runs inside internal/amp's virtual-time simulator runs here over
// actual byte-frame transports — in-process, TCP, or a fault-injecting
// wrapper — via a thin amp.Context adapter (Runtime). The simulator
// stays the scenario lab; this package proves the algorithms survive
// real concurrency, real timeouts, and real crashes (kill -9 a node
// mid-campaign and restart it).
//
// # Architecture
//
// A Transport moves opaque byte frames between n fixed peers:
//
//   - Loopback (loopback.go): an in-process network with a virtual
//     clock and a deterministic event queue, usable from tests and the
//     scenario harness — the same seed always yields the same delivery
//     order, so transport-level runs are replayable and shrinkable by
//     cmd/basicsfuzz like every other engine.
//   - TCP (tcp.go): length-prefixed binary frames (codec.go) over a
//     per-destination connection pool with dial timeouts and automatic
//     reconnect. Connections are simplex: each direction dials its own,
//     which makes reconnect after a peer death a local decision of the
//     sender.
//   - Chaos (chaos.go): a wrapping transport that injects drops,
//     delays, duplication, reordering, and link partitions from a
//     seeded schedule, mirroring amp.Adversary semantics (first drop
//     verdict wins; delays accumulate) so the simulator's fault
//     vocabulary translates one-to-one to real backends.
//
// # The robustness contract (Resilient)
//
// All backends share one robustness layer, Resilient (resilient.go).
// It adds no reliability of its own on the wire: TCP already delivers
// in order, and the protocols above are built for channels that lose
// and reorder messages, as the simulator checks them. The contract is:
//
//   - At most once per accepted send: a frame the inner transport
//     accepts is handed over once and never retransmitted. Chaos may
//     still duplicate or reorder it, and a frame accepted into a dying
//     connection is lost.
//   - A send the inner transport refuses synchronously (a dial or
//     write error, e.g. a peer that is restarting) is retried with
//     exponential backoff plus seeded jitter (Policy.RetryBase
//     doubling up to Policy.RetryCap, +/- Policy.JitterPct percent),
//     and the frames sent after it wait behind it. The budget is
//     bounded (Policy.Budget attempts): exhaustion surfaces a typed
//     *RetryError through OnDrop and the Dropped counter, and the link
//     moves on to its next queued frame — a dead peer can delay a
//     link, never wedge it.
//   - Heartbeat liveness is wired in from internal/fd: when
//     Policy.Suspected reports a peer suspect, the link parks outgoing
//     frames in a bounded queue (Policy.QueueCap) instead of burning
//     its retry budget. Beyond the cap frames are shed with a typed
//     *ShedError and counted — never unbounded growth, never a hang. A
//     probe timer (and Kick, invoked by the Runtime when a suspicion
//     retracts) drains the queue once the peer looks alive again.
//   - Loss is recovered by the protocols, which therefore tolerate
//     duplicates (rsm.Node dedups applies by message ID): Synod retries
//     its ballot, total-order broadcast fetches missing slots, gossips
//     its frontier, re-sends a lingering payload (its originator every
//     sync period until it is ordered, another holder once) and answers
//     a late copy of a delivered one with its frontier, and Ω heartbeats
//     periodically. A command whose originator stays up is applied
//     everywhere once the network heals.
//
// # Running real protocol stacks
//
// Runtime (runtime.go) adapts a Transport to amp.Context, so
// abd/rbcast/mpcons/rsm stacks run unmodified: handlers execute under
// an actor mutex (one at a time per node, as in the simulator), timers
// come from the transport's Clock (there are two: Loopback's virtual
// one, which tests also advance by hand, and RealClock for TCP), and
// messages are encoded with the gob-based Codec (wire.go) whose
// concrete types each protocol package registers via its RegisterWire
// function — unless the transport offers the in-process ValueTransport
// fast path, in which case message values cross uncopied and the codec
// is skipped. On the byte path a message to self never becomes a frame:
// the Runtime queues the value and handles it in the same turn, after
// the sending handler returns, so it costs no encode, frame or decode;
// and a broadcast is encoded once, its one frame handed to every
// peer's link. cmd/basicsd builds a node binary, a workload and a
// kill -9 end-to-end harness on top; internal/scenario/models/transport
// runs the Loopback+Chaos stack through seeded fault schedules with
// the linearizable-KV oracle.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Handler is the delivery upcall: one inbound frame from peer `from`.
// Handlers may be invoked concurrently by real backends; the Runtime
// serializes them per node.
type Handler func(from int, frame []byte)

// Transport moves opaque byte frames between n fixed peers, identified
// by ids in [0, n). Send is fire-and-forget at this layer: an error
// reports a local, synchronous failure (closed transport, unreachable
// peer, oversized frame); successful return does not imply delivery.
// Wrap with Resilient for the retry of refused sends and
// suspected-peer parking.
type Transport interface {
	// Self returns this endpoint's id.
	Self() int
	// N returns the number of peers (including self).
	N() int
	// Handle installs the delivery upcall (replacing any previous one).
	Handle(h Handler)
	// Send queues frame for delivery to peer `to`. The frame is not
	// aliased after Send returns.
	Send(to int, frame []byte) error
	// Close releases the transport; subsequent Sends return ErrClosed.
	Close() error
}

// ValueHandler is the delivery upcall of the value fast path: one
// inbound message value from peer `from`.
type ValueHandler func(from int, msg any)

// ValueTransport is an optional Transport extension for in-process
// backends that can move the message value itself, skipping the byte
// codec entirely. The amp stacks already treat messages as immutable
// once sent (the Sim scheduler delivers values without copying), so an
// in-process network may alias them; serialization buys nothing but
// CPU time there. The Runtime uses this path automatically when the
// transport provides it. Chaos (corruption needs real bytes), TCP and
// Resilient don't implement it, so fault injection and wire traffic
// keep the full codec.
type ValueTransport interface {
	// SendValue queues msg for delivery to peer `to`. Both ends must
	// treat msg as immutable.
	SendValue(to int, msg any) error
	// HandleValue installs the value delivery upcall (replacing any
	// previous one).
	HandleValue(h ValueHandler)
}

// Typed errors of the transport layer. Resilient wraps them with
// per-frame context (RetryError, ShedError).
var (
	// ErrClosed reports a send on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrFrameTooLarge reports a frame above the codec's MaxFrame.
	ErrFrameTooLarge = errors.New("transport: frame exceeds max size")
	// ErrTruncatedFrame reports a frame that ends mid-header or
	// mid-payload.
	ErrTruncatedFrame = errors.New("transport: truncated frame")
	// ErrBadFrame reports a frame that fails magic/version/checksum
	// validation (garbage on the wire).
	ErrBadFrame = errors.New("transport: malformed frame")
	// ErrDown reports a send to or from a peer marked down (Loopback's
	// kill switch).
	ErrDown = errors.New("transport: peer down")
)

// RetryError reports that the inner transport refused every one of a
// frame's Policy.Budget attempts. It wraps the last refusal.
type RetryError struct {
	To       int
	Attempts int
	Last     error
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("transport: frame to peer %d dropped after %d refused attempts: %v",
		e.To, e.Attempts, e.Last)
}

// Unwrap exposes the last refusal.
func (e *RetryError) Unwrap() error { return e.Last }

// ShedError reports that a frame was shed because the link's bounded
// queue to a suspected or slow peer was full.
type ShedError struct {
	To     int
	Queued int
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("transport: frame to peer %d shed (queue at cap %d)", e.To, e.Queued)
}

// Stats are monotone event counters. All fields are updated atomically
// and may be read concurrently.
type Stats struct {
	// Sent counts frames handed to the underlying transport (including
	// retries of refused sends and chaos duplicates).
	Sent atomic.Uint64
	// Delivered counts frames handed to the delivery upcall.
	Delivered atomic.Uint64
	// Retries counts attempts after a refused one (Resilient only).
	Retries atomic.Uint64
	// Dropped counts frames abandoned after budget exhaustion or
	// arriving before a handler (Resilient), or by chaos injection
	// (Chaos).
	Dropped atomic.Uint64
	// Shed counts frames rejected at the queue cap (Resilient only).
	Shed atomic.Uint64
	// Duplicated counts chaos-injected duplicate deliveries (Chaos
	// only).
	Duplicated atomic.Uint64
}

// validatePeer panics on an out-of-range peer id (programming error,
// matching amp's convention).
func validatePeer(to, n int) {
	if to < 0 || to >= n {
		panic(fmt.Sprintf("transport: peer id %d out of range [0,%d)", to, n))
	}
}
