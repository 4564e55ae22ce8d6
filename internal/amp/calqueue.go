package amp

import "container/heap"

// calWidth is the calendar window in virtual-time units (a power of two).
// Events due within the next calWidth units live in a ring of per-tick
// buckets (append to schedule, array read to dequeue); events further out
// wait in a small overflow heap. Delays in this repository are almost
// always tiny (FixedDelay Δ, heartbeat periods, post-GST bounds), so the
// ring absorbs the hot path; only pre-GST "arbitrary" delays touch the
// overflow heap.
const calWidth Time = 32

// calBucket holds every queued event of one virtual-time tick, in push
// (= seq) order. head/evs form a drain cursor so same-timestamp events —
// a delivery batch — are consumed by advancing an index, not by popping a
// heap; the slice's capacity is reused across the window's revolutions.
type calBucket struct {
	evs  []*event
	head int
}

// calQueue is a calendar (timing-wheel) event queue with an overflow
// heap. It yields events in (at, seq) order, as one binary heap over
// every event would:
//
//   - buckets are visited in increasing time order;
//   - within a bucket, events drain in append order, which is seq order;
//   - ties between the ring and the overflow heap go to the overflow
//     heap, because an event is pushed to overflow only while its time is
//     at least cur+calWidth ahead — i.e. strictly before any same-time
//     ring push — so its seq is smaller.
//
// Invariants: cur never exceeds the earliest queued event's time, and
// every ring event's time t satisfies cur <= t < cur+calWidth (pushes
// beyond the window go to overflow; cur only advances to popped event
// times, which are global minima). Each ring index therefore maps to at
// most one live timestamp, so an index's non-emptiness identifies its
// tick.
type calQueue struct {
	buckets []calBucket
	mask    Time
	cur     Time // time of the last popped event (scan floor)
	ring    int  // events currently in buckets
	over    eventHeap
}

func (q *calQueue) init() {
	q.buckets = make([]calBucket, calWidth)
	q.mask = calWidth - 1
}

// push enqueues e. Times in the past of the scan floor are clamped to it
// (the simulator's Schedule/CrashAt clamp to now first, so this only
// guards against harness misuse).
func (q *calQueue) push(e *event) {
	if e.at < q.cur {
		e.at = q.cur
	}
	if e.at-q.cur < calWidth {
		b := &q.buckets[e.at&q.mask]
		b.evs = append(b.evs, e)
		q.ring++
		return
	}
	heap.Push(&q.over, e)
}

// pop removes and returns the earliest event, or nil when the queue is
// empty or the earliest event is due after until (until > 0); in the
// latter case the event stays queued for a later Run.
func (q *calQueue) pop(until Time) *event {
	ringAt := Time(-1)
	var rb *calBucket
	if q.ring > 0 {
		for t := q.cur; ; t++ {
			b := &q.buckets[t&q.mask]
			if b.head < len(b.evs) {
				ringAt, rb = t, b
				break
			}
		}
	}
	overAt := Time(-1)
	if len(q.over) > 0 {
		overAt = q.over[0].at
	}
	var fromOver bool
	switch {
	case ringAt < 0 && overAt < 0:
		return nil
	case ringAt < 0:
		fromOver = true
	case overAt < 0:
		fromOver = false
	default:
		fromOver = overAt <= ringAt // tie: overflow was pushed earlier
	}
	if fromOver {
		if until > 0 && overAt > until {
			return nil
		}
		q.cur = overAt
		return heap.Pop(&q.over).(*event)
	}
	if until > 0 && ringAt > until {
		return nil
	}
	q.cur = ringAt
	e := rb.evs[rb.head]
	rb.evs[rb.head] = nil
	rb.head++
	if rb.head == len(rb.evs) {
		rb.evs = rb.evs[:0]
		rb.head = 0
	}
	q.ring--
	return e
}

// len reports the number of queued events.
func (q *calQueue) len() int { return q.ring + len(q.over) }

// eventHeap is the overflow: a binary heap in (at, seq) order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
