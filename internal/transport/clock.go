package transport

import (
	"time"

	"distbasics/internal/amp"
)

// Clock is the Runtime's and Chaos's time source. Time is measured in
// amp.Time ticks so the same timers and failure-detector periods work
// over both implementations: Loopback's virtual clock (Loopback.Clock,
// advanced only by Loopback.Run) and the wall clock (RealClock).
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current tick.
	Now() amp.Time
	// AfterFunc runs f after d ticks (d < 1 is treated as 1). The
	// returned Timer can cancel the callback before it fires.
	AfterFunc(d amp.Time, f func()) Timer
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the callback; it reports whether the callback had
	// not yet fired.
	Stop() bool
}

// RealClock maps ticks onto the wall clock: one tick is Unit of real
// time. It is the clock of the TCP runtime; with the default 2ms unit,
// the failure detector's Period=8 becomes a 16ms heartbeat.
type RealClock struct {
	unit  time.Duration
	start time.Time
}

// DefaultUnit is the real duration of one tick unless overridden.
const DefaultUnit = 2 * time.Millisecond

// NewRealClock returns a wall clock with the given tick unit (<= 0
// selects DefaultUnit).
func NewRealClock(unit time.Duration) *RealClock {
	if unit <= 0 {
		unit = DefaultUnit
	}
	return &RealClock{unit: unit, start: time.Now()}
}

// Now implements Clock.
func (c *RealClock) Now() amp.Time {
	return amp.Time(time.Since(c.start) / c.unit)
}

// AfterFunc implements Clock.
func (c *RealClock) AfterFunc(d amp.Time, f func()) Timer {
	if d < 1 {
		d = 1
	}
	return realTimer{t: time.AfterFunc(time.Duration(d)*c.unit, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }
