package transport

import (
	"container/heap"
	"sync"

	"distbasics/internal/amp"
)

// Loopback is the in-process deterministic network: n endpoints, a
// virtual clock, and one event queue ordered by (time, enqueue-seq).
// Every frame takes exactly one tick (reordering and loss come from a
// Chaos wrapper, never from the network itself). Deliveries and timer
// callbacks fire only inside Run, on the calling goroutine, so a seeded
// run replays byte-identically — the property the scenario harness and
// cmd/basicsfuzz build on. SetDown emulates kill -9 deterministically:
// a down node's sends error, frames addressed to it evaporate, and a
// restarted node re-installs its handler via Node(i).Handle.
//
// Its Clock is also the repository's one manually driven clock: a
// node-less NewLoopback(0).Clock() with Run(Now()+d) as "advance" steps
// timers in tests without sleeping. Send to a down or closed endpoint
// is refused at once and the frame is gone: with no retry layer above
// it, a Loopback node is the lossy channel of the simulator.
type Loopback struct {
	mu    sync.Mutex
	now   amp.Time
	seq   int64
	queue lbQueue
	nodes []*LoopbackNode
	down  []bool
	stats Stats
}

// NewLoopback returns an n-endpoint in-process network.
func NewLoopback(n int) *Loopback {
	l := &Loopback{down: make([]bool, n), nodes: make([]*LoopbackNode, n)}
	for i := range l.nodes {
		l.nodes[i] = &LoopbackNode{net: l, id: i}
	}
	return l
}

// Node returns endpoint i's Transport.
func (l *Loopback) Node(i int) *LoopbackNode {
	validatePeer(i, len(l.nodes))
	return l.nodes[i]
}

// Clock returns the network's virtual clock (shared by all endpoints):
// the Loopback itself, whose Now and AfterFunc implement Clock.
func (l *Loopback) Clock() Clock { return l }

// Stats returns the network's counters.
func (l *Loopback) Stats() *Stats { return &l.stats }

// SetDown marks endpoint i down (true) or back up (false). While down,
// its sends return ErrDown and frames addressed to it are discarded at
// delivery time.
func (l *Loopback) SetDown(i int, down bool) {
	validatePeer(i, len(l.nodes))
	l.mu.Lock()
	l.down[i] = down
	l.mu.Unlock()
}

// Now returns the current virtual time (and implements Clock).
func (l *Loopback) Now() amp.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now
}

// Run pumps events in deterministic order until the queue is empty or
// the next event is due after `until`, then sets the clock to `until`.
// It returns the number of events fired.
func (l *Loopback) Run(until amp.Time) int {
	fired := 0
	for {
		l.mu.Lock()
		if len(l.queue) == 0 || l.queue[0].at > until {
			if l.now < until {
				l.now = until
			}
			l.mu.Unlock()
			return fired
		}
		ev := heap.Pop(&l.queue).(*lbEvent)
		if ev.at > l.now {
			l.now = ev.at
		}
		ev.fired = true
		l.mu.Unlock()
		if !ev.stopped {
			ev.f()
			fired++
		}
	}
}

// AfterFunc implements Clock: f joins the event queue d ticks out.
func (l *Loopback) AfterFunc(d amp.Time, f func()) Timer {
	if d < 1 {
		d = 1
	}
	return l.push(d, f)
}

// push enqueues f d ticks from now (callers hold no loopback locks).
func (l *Loopback) push(d amp.Time, f func()) *lbEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := &lbEvent{at: l.now + d, seq: l.seq, f: f}
	l.seq++
	heap.Push(&l.queue, ev)
	return ev
}

// lbEvent is one queued delivery or timer callback.
type lbEvent struct {
	at      amp.Time
	seq     int64
	f       func()
	stopped bool
	fired   bool // popped by Run: too late to Stop
}

// Stop implements Timer.
func (ev *lbEvent) Stop() bool {
	if ev.stopped || ev.fired {
		return false
	}
	ev.stopped = true
	return true
}

// lbQueue is a (time, seq)-ordered binary heap.
type lbQueue []*lbEvent

func (q lbQueue) Len() int { return len(q) }
func (q lbQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q lbQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *lbQueue) Push(x any)   { *q = append(*q, x.(*lbEvent)) }
func (q *lbQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// LoopbackNode is one endpoint of a Loopback network.
type LoopbackNode struct {
	net      *Loopback
	id       int
	mu       sync.Mutex
	handler  Handler
	vhandler ValueHandler
	closed   bool
}

// Self implements Transport.
func (n *LoopbackNode) Self() int { return n.id }

// N implements Transport.
func (n *LoopbackNode) N() int { return len(n.net.nodes) }

// Handle implements Transport.
func (n *LoopbackNode) Handle(h Handler) {
	n.mu.Lock()
	n.handler = h
	n.closed = false
	n.mu.Unlock()
}

// HandleValue implements ValueTransport.
func (n *LoopbackNode) HandleValue(h ValueHandler) {
	n.mu.Lock()
	n.vhandler = h
	n.closed = false
	n.mu.Unlock()
}

// Send implements Transport: the frame is copied and delivered one tick
// later, unless either end is down.
func (n *LoopbackNode) Send(to int, frame []byte) error {
	return n.deliver(to, append([]byte(nil), frame...), nil, false)
}

// SendValue implements ValueTransport: delivery semantics (delay,
// down/closed drops, stats) are Send's, minus the codec — the message
// value itself crosses, uncopied, so both ends must treat it as
// immutable.
func (n *LoopbackNode) SendValue(to int, msg any) error {
	return n.deliver(to, nil, msg, true)
}

// deliver is the one path under Send and SendValue: refuse if this end
// is closed or down, else queue the hand-over to the destination's
// frame handler (or value handler, for value) one tick out; a
// destination that is down, closed or handler-less by then drops it.
func (n *LoopbackNode) deliver(to int, frame []byte, msg any, value bool) error {
	validatePeer(to, n.N())
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	l := n.net
	l.mu.Lock()
	down := l.down[n.id]
	l.mu.Unlock()
	if down {
		return ErrDown
	}
	from := n.id
	l.stats.Sent.Add(1)
	l.push(1, func() {
		dst := l.nodes[to]
		l.mu.Lock()
		dstDown := l.down[to]
		l.mu.Unlock()
		dst.mu.Lock()
		h, vh := dst.handler, dst.vhandler
		dstClosed := dst.closed
		dst.mu.Unlock()
		if dstDown || dstClosed || (value && vh == nil) || (!value && h == nil) {
			l.stats.Dropped.Add(1)
			return
		}
		l.stats.Delivered.Add(1)
		if value {
			vh(from, msg)
		} else {
			h(from, frame)
		}
	})
	return nil
}

// Close implements Transport. Closing an endpoint only detaches it; a
// later Handle reattaches (restart).
func (n *LoopbackNode) Close() error {
	n.mu.Lock()
	n.closed = true
	n.handler = nil
	n.vhandler = nil
	n.mu.Unlock()
	return nil
}
