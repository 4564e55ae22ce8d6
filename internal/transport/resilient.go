package transport

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"distbasics/internal/amp"
	"distbasics/internal/splitmix"
)

// Policy is the shared robustness contract every backend runs under
// when wrapped by Resilient: per-link send timeout, bounded retry with
// exponential backoff plus seeded jitter, and failure-detector-driven
// degradation for suspected peers. All durations are clock ticks, so
// one policy works over the virtual Loopback clock and the wall clock.
type Policy struct {
	// SendTimeout is how long one attempt waits for an ack (default 40).
	SendTimeout amp.Time
	// RetryBase is the backoff before the first retransmission; it
	// doubles per attempt (default 20).
	RetryBase amp.Time
	// RetryCap bounds the backoff (default 400).
	RetryCap amp.Time
	// JitterPct spreads each backoff uniformly by +/- this percentage
	// (default 25; negative for none), so synchronized retry storms
	// decorrelate.
	JitterPct int
	// Budget is the maximum number of attempts per frame (default 8);
	// exhaustion drops the frame with a *RetryError.
	Budget int
	// QueueCap bounds the per-link queue of frames waiting behind an
	// in-flight or suspected-peer send (default 256); beyond it frames
	// are shed with a *ShedError.
	QueueCap int
	// ProbeEvery is how often a link with parked frames re-checks a
	// suspected peer (default 200).
	ProbeEvery amp.Time
	// Suspected, when set, reports whether the failure detector
	// currently suspects a peer. While a peer is suspect the link
	// parks frames instead of burning its retry budget. The function
	// must be safe to call from any goroutine and must not call back
	// into the transport.
	Suspected func(peer int) bool
	// Seed seeds the per-link jitter streams.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.SendTimeout <= 0 {
		p.SendTimeout = 40
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 20
	}
	if p.RetryCap <= 0 {
		p.RetryCap = 400
	}
	if p.Budget <= 0 {
		p.Budget = 8
	}
	if p.QueueCap <= 0 {
		p.QueueCap = 256
	}
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = 200
	}
	return p
}

// Backoff returns the jittered backoff delay before retransmission
// `attempt` (1-based), drawing jitter from rng. Exposed for the policy
// unit tests.
func (p Policy) Backoff(attempt int, rng *splitmix.Source) amp.Time {
	return amp.Backoff(p.RetryBase, p.RetryCap, p.JitterPct, attempt, rng)
}

// Resilient envelope: [kind byte][seq uint64 BE][payload...]. Acks
// carry the acknowledged seq and no payload.
const (
	envData = 0x00
	envAck  = 0x01
	envSize = 9
)

func appendEnvelope(kind byte, seq uint64, payload []byte) []byte {
	buf := make([]byte, 0, envSize+len(payload))
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return append(buf, payload...)
}

// Resilient wraps a Transport with the Policy's at-least-once
// retry/timeout/backoff machinery. See the package documentation for
// the full contract. Duplicates are possible by design (a lost ack
// retransmits a delivered frame); layers above must be idempotent.
type Resilient struct {
	inner  Transport
	clock  Clock
	policy Policy
	links  []*link
	stats  Stats
	closed atomic.Bool

	mu sync.Mutex
	h  Handler
	// OnDrop, when set, observes every frame abandoned with a typed
	// error (*RetryError or *ShedError). Called without internal locks
	// held; must not block.
	OnDrop func(to int, err error)
}

// NewResilient wraps inner under policy, using clock for timeouts and
// backoff.
func NewResilient(inner Transport, clock Clock, policy Policy) *Resilient {
	r := &Resilient{inner: inner, clock: clock, policy: policy.withDefaults()}
	r.links = make([]*link, inner.N())
	for i := range r.links {
		r.links[i] = &link{
			r: r, peer: i,
			rng: splitmix.New(uint64(r.policy.Seed ^ int64(inner.Self())<<16 ^ int64(i))),
		}
	}
	inner.Handle(r.onFrame)
	return r
}

// Self implements Transport.
func (r *Resilient) Self() int { return r.inner.Self() }

// N implements Transport.
func (r *Resilient) N() int { return r.inner.N() }

// Stats returns the layer's counters.
func (r *Resilient) Stats() *Stats { return &r.stats }

// Handle implements Transport.
func (r *Resilient) Handle(h Handler) {
	r.mu.Lock()
	r.h = h
	r.mu.Unlock()
}

// Close implements Transport.
func (r *Resilient) Close() error {
	r.closed.Store(true)
	for _, l := range r.links {
		l.mu.Lock()
		if l.timer != nil {
			l.timer.Stop()
			l.timer = nil
		}
		l.inflight = nil
		l.queue = nil
		l.mu.Unlock()
	}
	return r.inner.Close()
}

// Kick notifies the link to `peer` that the peer may be alive again
// (the Runtime calls it when a suspicion retracts), draining any
// parked frames immediately instead of waiting for the probe timer.
func (r *Resilient) Kick(peer int) {
	validatePeer(peer, r.N())
	r.links[peer].kick()
}

// QueueLen returns the number of frames parked on the link to peer
// (test introspection).
func (r *Resilient) QueueLen(peer int) int {
	l := r.links[peer]
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.queue)
	if l.inflight != nil {
		n++
	}
	return n
}

// Send implements Transport: the frame is enqueued on the per-peer
// link and retried until acked, dropped by budget exhaustion, or shed
// at the queue cap (the only synchronous error besides ErrClosed).
func (r *Resilient) Send(to int, frame []byte) error {
	validatePeer(to, r.N())
	if r.closed.Load() {
		return ErrClosed
	}
	return r.links[to].send(frame)
}

// SetSuspected installs the failure-detector predicate after
// construction. The Runtime's Suspected method needs the Resilient
// first, so the wiring is circular: build the Resilient, build the
// Runtime over it, then point the policy at Runtime.Suspected. Must be
// called before traffic starts.
func (r *Resilient) SetSuspected(f func(peer int) bool) {
	r.policy.Suspected = f
}

func (r *Resilient) suspected(peer int) bool {
	if r.policy.Suspected == nil || peer == r.Self() {
		return false
	}
	return r.policy.Suspected(peer)
}

// onFrame is the inner transport's delivery upcall.
func (r *Resilient) onFrame(from int, frame []byte) {
	if len(frame) < envSize {
		r.stats.Dropped.Add(1)
		return
	}
	kind, seq := frame[0], binary.BigEndian.Uint64(frame[1:envSize])
	switch kind {
	case envData:
		// Ack (fire-and-forget), then deliver. Every duplicate is
		// re-acked: the sender's ack may have been the lost half. With
		// no handler yet (a peer dials before Runtime.Start) nothing is
		// acked, so the sender retransmits instead of losing the frame.
		r.mu.Lock()
		h := r.h
		r.mu.Unlock()
		if h == nil {
			return
		}
		_ = r.inner.Send(from, appendEnvelope(envAck, seq, nil))
		r.stats.Delivered.Add(1)
		h(from, frame[envSize:])
	case envAck:
		r.links[from].onAck(seq)
	default:
		r.stats.Dropped.Add(1)
	}
}

// link is the per-peer retry state machine. Lock ordering: a link's
// mutex may be held while calling inner.Send (backends never deliver
// synchronously back into the caller), but never while invoking
// delivery or OnDrop upcalls.
type link struct {
	r    *Resilient
	peer int

	mu          sync.Mutex
	rng         splitmix.Source // private jitter stream
	nextSeq     uint64
	queue       [][]byte // payloads parked behind inflight/suspicion
	inflight    []byte   // encoded data frame being retried
	inflightSeq uint64
	attempts    int
	timer       Timer // pending ack-timeout, backoff, or probe
	lastErr     error
}

func (l *link) send(payload []byte) error {
	l.mu.Lock()
	if l.inflight != nil || l.r.suspected(l.peer) {
		if len(l.queue) >= l.r.policy.QueueCap {
			n := len(l.queue)
			l.mu.Unlock()
			l.r.stats.Shed.Add(1)
			err := &ShedError{To: l.peer, Queued: n}
			if cb := l.r.OnDrop; cb != nil {
				cb(l.peer, err)
			}
			return err
		}
		l.queue = append(l.queue, append([]byte(nil), payload...))
		// A suspected idle link needs a probe to ever drain.
		if l.inflight == nil && l.timer == nil {
			l.armProbeLocked()
		}
		l.mu.Unlock()
		return nil
	}
	l.startLocked(append([]byte(nil), payload...))
	l.mu.Unlock()
	return nil
}

// startLocked begins transmission of a fresh payload (l.mu held).
func (l *link) startLocked(payload []byte) {
	l.nextSeq++
	l.inflightSeq = l.nextSeq
	l.inflight = appendEnvelope(envData, l.inflightSeq, payload)
	l.attempts = 0
	l.lastErr = nil
	l.transmitLocked()
}

// transmitLocked performs one attempt of the in-flight frame (l.mu
// held).
func (l *link) transmitLocked() {
	l.attempts++
	if l.attempts > 1 {
		l.r.stats.Retries.Add(1)
	}
	l.r.stats.Sent.Add(1)
	err := l.r.inner.Send(l.peer, l.inflight)
	seq := l.inflightSeq
	if l.timer != nil {
		l.timer.Stop()
	}
	if err != nil {
		// Synchronous failure: no ack will come; go straight to backoff.
		l.lastErr = err
		delay := l.r.policy.Backoff(l.attempts, &l.rng)
		l.timer = l.r.clock.AfterFunc(delay, func() { l.onTimeout(seq, true) })
		return
	}
	l.timer = l.r.clock.AfterFunc(l.r.policy.SendTimeout, func() { l.onTimeout(seq, false) })
}

// onTimeout handles an expired ack wait, or the backoff after a refused
// attempt (refused), for seq; only the former backs off before retrying.
func (l *link) onTimeout(seq uint64, refused bool) {
	var dropErr error
	l.mu.Lock()
	if l.inflight == nil || l.inflightSeq != seq || l.r.closed.Load() {
		l.mu.Unlock()
		return
	}
	l.timer = nil
	if l.r.suspected(l.peer) {
		// Degrade: stop burning budget, park the frame at the queue head
		// and probe until the detector retracts. The frame keeps its
		// attempt count.
		l.queue = append([][]byte{l.inflight[envSize:]}, l.queue...)
		l.inflight = nil
		l.armProbeLocked()
		l.mu.Unlock()
		return
	}
	if l.attempts >= l.r.policy.Budget {
		last := l.lastErr
		dropErr = &RetryError{To: l.peer, Seq: seq, Attempts: l.attempts, Last: last}
		l.inflight = nil
		l.r.stats.Dropped.Add(1)
		l.advanceLocked()
		l.mu.Unlock()
	} else if refused {
		l.transmitLocked()
		l.mu.Unlock()
	} else {
		delay := l.r.policy.Backoff(l.attempts, &l.rng)
		l.timer = l.r.clock.AfterFunc(delay, func() { l.retransmit(seq) })
		l.mu.Unlock()
	}
	if dropErr != nil {
		if cb := l.r.OnDrop; cb != nil {
			cb(l.peer, dropErr)
		}
	}
}

// retransmit re-sends the in-flight frame after its backoff.
func (l *link) retransmit(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight == nil || l.inflightSeq != seq || l.r.closed.Load() {
		return
	}
	l.timer = nil
	l.transmitLocked()
}

// onAck completes the in-flight frame and advances the queue.
func (l *link) onAck(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight == nil || l.inflightSeq != seq {
		return // stale or duplicate ack
	}
	l.r.stats.Acked.Add(1)
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.inflight = nil
	l.attempts = 0
	l.advanceLocked()
}

// advanceLocked starts the next queued frame, if any and if the peer
// is not suspect (l.mu held).
func (l *link) advanceLocked() {
	if l.inflight != nil || len(l.queue) == 0 {
		return
	}
	if l.r.suspected(l.peer) {
		l.armProbeLocked()
		return
	}
	payload := l.queue[0]
	l.queue = l.queue[1:]
	l.startLocked(payload)
}

// armProbeLocked schedules a suspicion re-check (l.mu held).
func (l *link) armProbeLocked() {
	if l.timer != nil {
		l.timer.Stop()
	}
	l.timer = l.r.clock.AfterFunc(l.r.policy.ProbeEvery, l.probe)
}

// probe fires for a link with parked frames: one REAL transmission
// attempt of the head frame, even while the peer is still suspected.
// This is what keeps suspicion recoverable — if probes only re-checked
// the flag, two nodes suspecting each other would park both directions
// of heartbeat traffic and the false partition could never heal. While
// suspicion lasts, onTimeout re-parks the frame without burning budget,
// so the degraded link costs one frame per ProbeEvery.
func (l *link) probe() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.r.closed.Load() || l.inflight != nil {
		return
	}
	l.timer = nil
	if len(l.queue) == 0 {
		return
	}
	payload := l.queue[0]
	l.queue = l.queue[1:]
	l.startLocked(payload)
}

// kick drains parked frames if the link is idle.
func (l *link) kick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.r.closed.Load() || l.inflight != nil {
		return
	}
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.advanceLocked()
}
