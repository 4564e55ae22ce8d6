package transport

import "distbasics/internal/amp"

// What the frozen bench/ module still calls of the retry and parking
// layer that TCP's per-peer writer replaced. Each item is a
// pass-through or a no-op, only bench/ uses it, and ROADMAP item 1's
// housekeeping deletes it.

// Policy holds the fields bench/ passes to NewResilient, all ignored.
// Only bench/ uses it.
type Policy struct {
	SendTimeout, RetryBase, RetryCap amp.Time
	Seed                             int64
}

// Resilient is its inner Transport, unchanged. Only bench/ uses it.
type Resilient struct {
	Transport
	stats Stats
}

// NewResilient returns inner as a Resilient, ignoring clock and policy.
// Only bench/ uses it.
func NewResilient(inner Transport, _ Clock, _ Policy) *Resilient {
	return &Resilient{Transport: inner}
}

// Stats returns counters that stay zero. Only bench/ uses it.
func (r *Resilient) Stats() *Stats { return &r.stats }

// Kick does nothing. Only bench/ uses it.
func (r *Resilient) Kick(int) {}

// SetSuspected does nothing. Only bench/ uses it.
func (r *Resilient) SetSuspected(func(int) bool) {}

// WithSuspectSource is an option that does nothing. Only bench/ uses it.
func WithSuspectSource(func() []bool) RuntimeOption { return func(*Runtime) {} }

// WithSuspectKick is an option that does nothing. Only bench/ uses it.
func WithSuspectKick(func(int)) RuntimeOption { return func(*Runtime) {} }

// Suspected reports false. Only bench/ uses it.
func (rt *Runtime) Suspected(int) bool { return false }
