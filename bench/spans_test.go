package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		0: {name: "root", parent: noSpan, start: ms(0), end: ms(100)},
		// Nested: a child with its own child.
		1: {name: "child", parent: 0, start: ms(10), end: ms(40)},
		2: {name: "grandchild", parent: 1, start: ms(20), end: ms(30)},
		// Overlapping siblings: [50,70] and [60,80] cover 30, not 40.
		3: {name: "overlap-a", parent: 0, start: ms(50), end: ms(70)},
		4: {name: "overlap-b", parent: 0, start: ms(60), end: ms(80)},
		// A child sticking out of its parent counts only inside it.
		5: {name: "late", parent: 0, start: ms(90), end: ms(120)},
		// Orphans: a parent that was never recorded, and an unfinished
		// parent; both are roots with their full duration.
		6: {name: "orphan", parent: 99, start: ms(0), end: ms(7)},
		7: {name: "unfinished", parent: noSpan, start: ms(0), end: -1},
		8: {name: "child-of-unfinished", parent: 7, start: ms(1), end: ms(4)},
	}
	want := []time.Duration{
		0: ms(100 - 30 - 30 - 10),
		1: ms(20),
		2: ms(10),
		3: ms(20),
		4: ms(20),
		5: ms(30),
		6: ms(7),
		7: 0,
		8: ms(3),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off", noSpan, 1); id != noSpan {
		t.Fatalf("disabled tracer returned span %d", id)
	}
	tr.finish(noSpan)
	tr.on.Store(true)
	root := tr.begin("root", noSpan, 7)
	kid := tr.begin("kid", root, 7)
	tr.finish(kid)
	tr.finish(root)
	open := tr.begin("open", root, 7)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[kid].parent != root || spans[kid].req != 7 || spans[open].end != -1 {
		t.Fatalf("recorded %+v", spans)
	}
	if spans[root].end < spans[kid].end || spans[kid].end < spans[kid].start {
		t.Errorf("span times out of order: %+v", spans)
	}
}
