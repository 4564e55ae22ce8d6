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
//   - TCP (tcp.go): length-prefixed binary frames (codec.go), one
//     outbound connection per peer, written by that peer's writer
//     goroutine. Connections are simplex: each direction dials its own,
//     which makes reconnect after a peer death a local decision of the
//     sender.
//   - Chaos (chaos.go): a wrapping transport that injects drops,
//     delays, duplication, reordering, and link partitions from a
//     seeded schedule, mirroring amp.Adversary semantics (first drop
//     verdict wins; delays accumulate) so the simulator's fault
//     vocabulary translates one-to-one to real backends.
//
// # The robustness contract
//
// A send never waits and never fails because of the network, as in the
// simulator: the channel delays or loses frames, and the protocols
// above are built for that. TCP keeps the contract:
//
//   - A writer per peer. Send frames into the peer's bounded buffer
//     (sendBufCap, 4 MiB) and returns. One goroutine per peer dials,
//     writes everything buffered in one writev(2), and redials. No
//     handler, timer or client call waits on a socket, so a slow or
//     stopped peer cannot stall the node that sends to it.
//   - A full buffer sheds. Send returns a *ShedError and counts it in
//     Stats.Shed; the Runtime counts it too, and to the protocol the
//     frame is lost.
//   - Redial with backoff. A refused dial is retried after amp.Backoff,
//     20 ms doubling to a 500 ms cap. What is buffered meanwhile goes
//     out once the peer listens, so a peer that is starting or
//     restarting gets it.
//   - At most once. A frame is written once and never retransmitted; a
//     failed write closes its connection and loses the batch in flight.
//     Chaos may still duplicate or reorder frames.
//   - No suspicion parking. The transport knows nothing of the failure
//     detector: a suspected peer's frames go while its socket takes
//     them, and are shed once its buffer is full.
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
// is skipped. On either path a message to self never reaches the
// transport: the Runtime handles it in the sending turn, after the
// handler returns, as amp.Sim does; and a broadcast is encoded once,
// its one frame handed to every peer's link. cmd/basicsd builds a node
// binary, a workload and a kill -9 end-to-end harness on top;
// internal/scenario/models/transport runs the Loopback+Chaos stack
// through seeded fault schedules with the linearizable-KV oracle.
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
// reports a local, synchronous failure (closed transport, a Loopback
// endpoint marked down, oversized frame, full buffer); successful return
// does not imply delivery.
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
// transport provides it, for messages to peers. Chaos (corruption
// needs real bytes) and TCP don't implement it, so fault injection and
// wire traffic keep the full codec.
type ValueTransport interface {
	// SendValue queues msg for delivery to peer `to`. Both ends must
	// treat msg as immutable.
	SendValue(to int, msg any) error
	// HandleValue installs the value delivery upcall (replacing any
	// previous one).
	HandleValue(h ValueHandler)
}

// Typed errors of the transport layer.
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

// ShedError reports that TCP refused a frame because the peer's bounded
// send buffer was full: Buffered bytes were waiting for a peer that is
// not reading.
type ShedError struct {
	To       int
	Buffered int
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("transport: frame to peer %d shed (%d bytes buffered)", e.To, e.Buffered)
}

// Stats are monotone event counters. All fields are updated atomically
// and may be read concurrently.
type Stats struct {
	// Sent counts frames accepted by Send (Loopback, TCP).
	Sent atomic.Uint64
	// Delivered counts frames handed to the delivery upcall.
	Delivered atomic.Uint64
	// Retries counts redials of a peer after its first dial (TCP only).
	Retries atomic.Uint64
	// Dropped counts frames lost to chaos injection (Chaos) or
	// addressed to a down, closed or handler-less endpoint (Loopback).
	Dropped atomic.Uint64
	// Shed counts frames refused at a full send buffer (TCP only).
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
