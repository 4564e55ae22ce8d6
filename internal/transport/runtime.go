package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"distbasics/internal/amp"
)

// Runtime adapts a Transport to amp.Context, so any amp.Process — the
// ABD register, an rsm.Node stack, reliable broadcast, Ben-Or — runs
// unmodified over Loopback, TCP, or a Chaos wrapper. The simulator's
// actor model is preserved: handlers and timers execute one at a time
// under the runtime's mutex, in delivery order on the deterministic
// Loopback and in arrival order over TCP.
//
// The runtime is also where transport liveness meets internal/fd: a
// suspect source (WithSuspectSource, typically fd.Detector.Suspects of
// a detector hosted in the same stack) is snapshotted after every
// event under the actor mutex into a lock-free view that the Resilient
// layer's Policy.Suspected may read from any goroutine, and suspicion
// retractions Kick the corresponding link so parked frames drain
// immediately.
type Runtime struct {
	tr    Transport
	vt    ValueTransport // non-nil when tr offers the value fast path
	clock Clock
	codec Codec
	proc  amp.Process
	id, n int

	mu      sync.Mutex // the actor mutex
	rng     *rand.Rand
	stopped bool
	halted  bool
	// toSelf is the byte path's FIFO of messages to self, drained by
	// exec once the sending handler returns.
	toSelf []amp.Message

	suspectSrc func() []bool
	suspects   []atomic.Bool
	kick       func(peer int)

	// DecodeErrs and SendErrs count frames that failed to decode and
	// sends the transport rejected synchronously (shed, closed).
	DecodeErrs, SendErrs atomic.Uint64

	ctx *rtCtx
}

// RuntimeOption configures a Runtime.
type RuntimeOption func(*Runtime)

// WithRuntimeSeed seeds the process's Rand (default 1).
func WithRuntimeSeed(seed int64) RuntimeOption {
	return func(rt *Runtime) { rt.rng = rand.New(rand.NewSource(seed)) }
}

// WithSuspectSource installs the failure-detector snapshot source. It
// is called after every handler/timer execution, under the actor
// mutex, and its result is published to Suspected.
func WithSuspectSource(src func() []bool) RuntimeOption {
	return func(rt *Runtime) { rt.suspectSrc = src }
}

// WithSuspectKick installs a callback invoked (outside the actor
// mutex) whenever a peer's suspicion retracts — wire it to
// Resilient.Kick so parked frames drain as soon as the detector
// changes its mind.
func WithSuspectKick(kick func(peer int)) RuntimeOption {
	return func(rt *Runtime) { rt.kick = kick }
}

// NewRuntime builds a runtime for proc over tr and clock. Call Start
// to install the handler and run Init.
func NewRuntime(tr Transport, clock Clock, proc amp.Process, opts ...RuntimeOption) *Runtime {
	rt := &Runtime{
		tr:       tr,
		clock:    clock,
		proc:     proc,
		id:       tr.Self(),
		n:        tr.N(),
		rng:      rand.New(rand.NewSource(1)),
		suspects: make([]atomic.Bool, tr.N()),
	}
	for _, o := range opts {
		o(rt)
	}
	rt.ctx = &rtCtx{rt: rt}
	return rt
}

// Start installs the delivery handler and runs the process's Init, in
// one critical section of the actor mutex: a peer that is already
// running can have a frame in flight the moment the handler exists, and
// that frame must wait on the mutex until Init has run (amp.Process:
// "Init runs once before any message is delivered") rather than be
// dropped or reach an uninitialised process. When the transport offers
// the in-process value fast path, messages skip the byte codec in both
// directions.
func (rt *Runtime) Start() {
	rt.exec(func() {
		rt.tr.Handle(rt.onFrame)
		if vt, ok := rt.tr.(ValueTransport); ok {
			rt.vt = vt
			vt.HandleValue(rt.onValue)
		}
		rt.proc.Init(rt.ctx)
	})
}

// Stop halts event processing; in-flight timers become no-ops. The
// underlying transport is not closed (callers own it).
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	rt.stopped = true
	rt.mu.Unlock()
}

// Do runs f inside the event loop (under the actor mutex) — the hook
// drivers use to submit client operations, mirroring Sim.Schedule.
func (rt *Runtime) Do(f func(ctx amp.Context)) {
	rt.exec(func() { f(rt.ctx) })
}

// Suspected reports the latest published suspicion snapshot for peer;
// safe from any goroutine, lock-free (wire it into Policy.Suspected).
func (rt *Runtime) Suspected(peer int) bool {
	if peer < 0 || peer >= rt.n {
		return false
	}
	return rt.suspects[peer].Load()
}

// onFrame decodes and dispatches one inbound frame.
func (rt *Runtime) onFrame(from int, frame []byte) {
	msg, err := rt.codec.Decode(frame)
	if err != nil {
		rt.DecodeErrs.Add(1)
		return
	}
	rt.exec(func() { rt.proc.OnMessage(rt.ctx, from, msg) })
}

// onValue dispatches one inbound fast-path message value.
func (rt *Runtime) onValue(from int, msg any) {
	rt.exec(func() { rt.proc.OnMessage(rt.ctx, from, msg) })
}

// exec runs f under the actor mutex, then delivers the messages f (and
// those deliveries) sent to self, in order, until the process halts;
// then publishes the suspicion snapshot and kicks retracted peers.
func (rt *Runtime) exec(f func()) {
	var retracted []int
	rt.mu.Lock()
	if rt.stopped || rt.halted {
		rt.mu.Unlock()
		return
	}
	f()
	for i := 0; i < len(rt.toSelf) && !rt.halted; i++ {
		rt.proc.OnMessage(rt.ctx, rt.id, rt.toSelf[i])
	}
	clear(rt.toSelf)
	rt.toSelf = rt.toSelf[:0]
	if rt.suspectSrc != nil {
		snap := rt.suspectSrc()
		for i := 0; i < rt.n && i < len(snap); i++ {
			was := rt.suspects[i].Load()
			if was != snap[i] {
				rt.suspects[i].Store(snap[i])
				if was && !snap[i] {
					retracted = append(retracted, i)
				}
			}
		}
	}
	rt.mu.Unlock()
	if rt.kick != nil {
		for _, p := range retracted {
			rt.kick(p)
		}
	}
}

// rtCtx implements amp.Context over the runtime.
type rtCtx struct{ rt *Runtime }

// ID implements amp.Context.
func (c *rtCtx) ID() int { return c.rt.id }

// N implements amp.Context.
func (c *rtCtx) N() int { return c.rt.n }

// Now implements amp.Context.
func (c *rtCtx) Now() amp.Time { return c.rt.clock.Now() }

// Rand implements amp.Context.
func (c *rtCtx) Rand() *rand.Rand { return c.rt.rng }

// Halt implements amp.Context.
func (c *rtCtx) Halt() { c.rt.halted = true }

// Send implements amp.Context. Transport-level errors (shed, closed)
// are counted, not surfaced — the amp contract has no send errors;
// reliability is the Resilient layer's and the protocol's job.
func (c *rtCtx) Send(to int, msg amp.Message) { c.rt.send(to, msg, nil) }

// Broadcast implements amp.Context (self included, per the paper's
// convention). On the byte path the message is encoded once and the
// same frame goes to every peer.
func (c *rtCtx) Broadcast(msg amp.Message) {
	var frame []byte
	for i := 0; i < c.rt.n; i++ {
		frame = c.rt.send(i, msg, frame)
	}
}

// send hands msg to the value path if the transport has one. On the
// byte path a message to self never becomes a frame: it joins toSelf,
// which exec drains in this turn once the sending handler returns. A
// message to a peer goes as frame, encoded here if nil; send returns
// it for the next peer (Transport.Send does not alias it).
func (rt *Runtime) send(to int, msg amp.Message, frame []byte) []byte {
	if rt.vt != nil {
		if err := rt.vt.SendValue(to, msg); err != nil {
			rt.SendErrs.Add(1)
		}
		return nil
	}
	if to == rt.id {
		rt.toSelf = append(rt.toSelf, msg)
		return frame
	}
	if frame == nil {
		var err error
		if frame, err = rt.codec.Encode(msg); err != nil {
			// An unregistered type is a programming error: every message a
			// protocol can send must be covered by its RegisterWire.
			panic(err)
		}
	}
	if err := rt.tr.Send(to, frame); err != nil {
		rt.SendErrs.Add(1)
	}
	return frame
}

// SetTimer implements amp.Context.
func (c *rtCtx) SetTimer(d amp.Time, id int) {
	c.rt.clock.AfterFunc(d, func() {
		c.rt.exec(func() { c.rt.proc.OnTimer(c.rt.ctx, id) })
	})
}
