package transport

import (
	"bytes"
	"sync"
	"sync/atomic"

	"distbasics/internal/amp"
	"distbasics/internal/splitmix"
)

// Policy is the shared robustness contract every backend runs under
// when wrapped by Resilient: bounded retry, with exponential backoff
// plus seeded jitter, of a send the inner transport refuses, and
// failure-detector-driven degradation for suspected peers. All
// durations are clock ticks, so one policy works over the virtual
// Loopback clock and the wall clock.
type Policy struct {
	// SendTimeout is ignored: a frame the inner transport accepts is
	// done, and nothing waits for an acknowledgement. The field exists
	// only because the frozen bench/ sets it.
	SendTimeout amp.Time
	// RetryBase is the backoff before the first retry of a refused
	// frame; it doubles per attempt (default 20).
	RetryBase amp.Time
	// RetryCap bounds the backoff (default 400).
	RetryCap amp.Time
	// JitterPct spreads each backoff uniformly by +/- this percentage
	// (default 25; negative for none), so synchronized retry storms
	// decorrelate.
	JitterPct int
	// Budget is the maximum number of attempts per refused frame
	// (default 8); exhaustion drops the frame with a *RetryError.
	Budget int
	// QueueCap bounds the per-link queue of frames waiting behind a
	// refused frame or a suspected peer (default 256); beyond it frames
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

// Backoff returns the jittered backoff delay after refused attempt
// `attempt` (1-based), drawing jitter from rng. Exposed for the policy
// unit tests.
func (p Policy) Backoff(attempt int, rng *splitmix.Source) amp.Time {
	return amp.Backoff(p.RetryBase, p.RetryCap, p.JitterPct, attempt, rng)
}

// Resilient wraps a Transport with the Policy. Each link hands a frame
// straight to the inner transport, which owns delivery: TCP delivers in
// order or its connection fails. A send the inner transport refuses
// synchronously (a dial or write error: a local signal that puts
// nothing on the wire) is retried after a jittered backoff, up to
// Policy.Budget attempts, and the frames sent after it wait behind it
// in the link's bounded queue, so a link stays FIFO; this is what
// carries frames across a peer's restart. While the failure detector
// suspects the peer the link parks its frames instead. Nothing is
// acknowledged: a frame the inner transport accepted and then lost (a
// dying connection's kernel buffer, a chaos drop) stays lost, and the
// protocols recover it (see the package documentation).
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

// NewResilient wraps inner under policy, using clock for backoff and
// probes.
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
		l.stopLocked()
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

// QueueLen returns the number of frames waiting on the link to peer
// (test introspection).
func (r *Resilient) QueueLen(peer int) int {
	l := r.links[peer]
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Send implements Transport: an idle link hands the frame to the inner
// transport at once; otherwise it waits in the link's queue, to be
// retried, parked, dropped by budget exhaustion, or shed at the queue
// cap (the only synchronous error besides ErrClosed).
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

// onFrame is the inner transport's delivery upcall. A frame that
// arrives before Handle (a peer dials while this node is still
// starting) is counted in Dropped; the protocols recover it like any
// other lost frame.
func (r *Resilient) onFrame(from int, frame []byte) {
	r.mu.Lock()
	h := r.h
	r.mu.Unlock()
	if h == nil {
		r.stats.Dropped.Add(1)
		return
	}
	r.stats.Delivered.Add(1)
	h(from, frame)
}

// link is the per-peer send path. The queue holds, in send order, the
// frames that cannot go yet: a refused frame at the head and those sent
// after it, or a suspected peer's parked frames. A link with queued
// frames always has a backoff or probe timer pending. Lock ordering: a
// link's mutex may be held while calling inner.Send (backends never
// deliver synchronously back into the caller), but never while invoking
// delivery or OnDrop upcalls.
type link struct {
	r    *Resilient
	peer int

	mu       sync.Mutex
	rng      splitmix.Source // private jitter stream
	queue    [][]byte        // frames waiting to go; the head goes next
	attempts int             // refused attempts of the head frame
	lastErr  error           // the head frame's last refusal
	timer    Timer           // pending backoff or probe
	gen      uint64          // bumped per timer armed or stopped, so a stale one is a no-op
}

func (l *link) send(frame []byte) error {
	l.mu.Lock()
	if len(l.queue) == 0 && !l.r.suspected(l.peer) {
		if !l.attemptLocked(frame) {
			l.queue = append(l.queue, bytes.Clone(frame))
		}
		l.mu.Unlock()
		return nil
	}
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
	l.queue = append(l.queue, bytes.Clone(frame))
	// A suspected idle link needs a probe to ever drain.
	if l.timer == nil {
		l.armLocked(l.r.policy.ProbeEvery, l.probe)
	}
	l.mu.Unlock()
	return nil
}

// attemptLocked hands frame to the inner transport and reports whether
// it was taken (l.mu held). A refusal counts against the frame's budget
// and arms the backoff that retries it.
func (l *link) attemptLocked(frame []byte) bool {
	l.attempts++
	if l.attempts > 1 {
		l.r.stats.Retries.Add(1)
	}
	l.r.stats.Sent.Add(1)
	err := l.r.inner.Send(l.peer, frame)
	if err == nil {
		l.attempts, l.lastErr = 0, nil
		return true
	}
	l.lastErr = err
	l.armLocked(l.r.policy.Backoff(l.attempts, &l.rng), l.retry)
	return false
}

// drainLocked hands queued frames over in order until the queue is
// empty or one is refused; while the peer is suspected it parks them
// behind a probe instead (l.mu held).
func (l *link) drainLocked() {
	for len(l.queue) > 0 {
		if l.r.suspected(l.peer) {
			l.armLocked(l.r.policy.ProbeEvery, l.probe)
			return
		}
		if !l.attemptLocked(l.queue[0]) {
			return
		}
		l.popLocked()
	}
}

func (l *link) popLocked() {
	l.queue[0] = nil
	l.queue = l.queue[1:]
}

// retry fires one backoff after the head frame was refused. A head
// frame out of budget is dropped, unless the peer is suspected: then
// it stays parked, keeping its attempt count.
func (l *link) retry(gen uint64) {
	var dropErr error
	l.mu.Lock()
	if !l.firedLocked(gen) {
		l.mu.Unlock()
		return
	}
	if l.attempts >= l.r.policy.Budget && !l.r.suspected(l.peer) {
		dropErr = &RetryError{To: l.peer, Attempts: l.attempts, Last: l.lastErr}
		l.r.stats.Dropped.Add(1)
		l.popLocked()
		l.attempts, l.lastErr = 0, nil
	}
	l.drainLocked()
	l.mu.Unlock()
	if dropErr != nil {
		if cb := l.r.OnDrop; cb != nil {
			cb(l.peer, dropErr)
		}
	}
}

// probe fires for a link with parked frames: one real attempt of the
// head frame, even while the peer is still suspected. This is what
// keeps suspicion recoverable — if probes only re-checked the flag, two
// nodes suspecting each other would park both directions of heartbeat
// traffic and the false partition could never heal. While suspicion
// lasts, the degraded link sends one frame per ProbeEvery.
func (l *link) probe(gen uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.firedLocked(gen) {
		return
	}
	if l.attemptLocked(l.queue[0]) {
		l.popLocked()
		l.drainLocked()
	}
}

// kick drains the queue now, instead of at the pending backoff or
// probe.
func (l *link) kick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.r.closed.Load() {
		return
	}
	l.stopLocked()
	l.drainLocked()
}

// firedLocked reports whether the timer of generation gen is the
// link's pending one, and if so clears it (l.mu held).
func (l *link) firedLocked(gen uint64) bool {
	if gen != l.gen || l.r.closed.Load() {
		return false
	}
	l.timer = nil
	return true
}

// armLocked replaces the pending timer with f, d ticks out (l.mu held).
func (l *link) armLocked(d amp.Time, f func(gen uint64)) {
	l.stopLocked()
	gen := l.gen
	l.timer = l.r.clock.AfterFunc(d, func() { f(gen) })
}

// stopLocked cancels the pending timer, if any (l.mu held).
func (l *link) stopLocked() {
	l.gen++
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
}
