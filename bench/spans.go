package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the index of the span that caused this one, or
// noSpan for a root.
type span struct {
	name       string
	req        int64
	parent     int
	start, end time.Duration // since the tracer's epoch
}

const noSpan = -1

// tracer keeps spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing, which is the pass-through side of
// the tracing-overhead comparison: the wrappers stay in the call path,
// only the recording is off.
//
// Recording takes no lock: begin reserves the next slot of a slice
// allocated up front, and only the goroutine that opened a span
// finishes it. Spans beyond the capacity are dropped and counted.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	next    atomic.Int64
	open    atomic.Int64 // spans begun and not yet finished
	dropped atomic.Int64
	spans   []span
}

// tracerCap holds a traced pass with room to spare: about 300k spans
// in the lease-read phase, 48 bytes each.
const tracerCap = 1 << 19

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, tracerCap)} }

// begin opens a span and returns its index (noSpan when disabled or
// full).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on.Load() {
		return noSpan
	}
	id := int(t.next.Add(1) - 1)
	if id >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.open.Add(1)
	t.spans[id] = span{name: name, req: req, parent: parent, start: time.Since(t.epoch), end: -1}
	return id
}

func (t *tracer) finish(id int) {
	if id != noSpan {
		t.spans[id].end = time.Since(t.epoch)
		t.open.Add(-1)
	}
}

// snapshot returns the spans recorded so far. Call it with the tracer
// switched off: it waits for the spans still open — an event-loop
// entry of a heartbeat, say — so that it does not read one while its
// owner finishes it, and gives up on spans nobody will finish.
func (t *tracer) snapshot() []span {
	for i := 0; t.open.Load() != 0 && i < 200; i++ {
		time.Sleep(time.Millisecond)
	}
	return t.spans[:min(int(t.next.Load()), len(t.spans))]
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (the union is subtracted once) and may stick out of the parent
// (only the part inside counts). Unfinished spans get 0; a span whose
// parent index is out of range is an orphan and is treated as a root.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 && s.parent < len(spans) && s.parent != i {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		self[i] = s.end - s.start - covered(spans, kids[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum time.Duration
	end := lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}
