package main

import (
	"sync"
	"syscall"
	"time"
)

// warmUp runs before every measured window and is excluded from it:
// connections dial, lazy pools grow, the Go scheduler settles.
const warmUp = 2 * time.Second

// class is what one kind of operation produced in a measured window.
type class struct {
	lat       hist
	bk        *buckets
	attempted int64
	failed    int64
}

func newClass(start time.Time, window time.Duration) *class {
	return &class{bk: newBuckets(start, window)}
}

func (c *class) merge(o *class) {
	c.lat.merge(&o.lat)
	c.bk.merge(o.bk)
	c.attempted += o.attempted
	c.failed += o.failed
}

// window is one measured interval, preceded by warmUp.
type window struct {
	begin, end time.Time
}

func newWindow(d time.Duration) window {
	begin := time.Now().Add(warmUp)
	return window{begin: begin, end: begin.Add(d)}
}

func (w window) length() time.Duration { return w.end.Sub(w.begin) }

// closedLoop drives one connection: the next operation is issued only
// when the previous one has returned. op gets the sequence number of
// the call and reports failure. An operation is counted, and its
// latency recorded, when it was issued inside the window; the
// one-second buckets also take the in-window part of the operations
// that straddle its two ends.
func closedLoop(w window, op func(seq int) error) *class {
	c := newClass(w.begin, w.length())
	for seq := 0; ; seq++ {
		t0 := time.Now()
		if !t0.Before(w.end) {
			return c
		}
		err := op(seq)
		t1 := time.Now()
		if err == nil {
			c.bk.add(t0, t1)
		}
		if t0.Before(w.begin) {
			continue
		}
		c.attempted++
		if err != nil {
			c.failed++
			continue
		}
		c.lat.record(t1.Sub(t0))
	}
}

// runConns runs one closed loop per connection concurrently and
// returns each connection's class.
func runConns(w window, ops []func(seq int) error) []*class {
	out := make([]*class, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op func(int) error) {
			defer wg.Done()
			out[i] = closedLoop(w, op)
		}(i, op)
	}
	wg.Wait()
	return out
}

func mergeClasses(w window, cs ...*class) *class {
	sum := newClass(w.begin, w.length())
	for _, c := range cs {
		sum.merge(c)
	}
	return sum
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
