package transport

import (
	"sync"

	"distbasics/internal/amp"
	"distbasics/internal/splitmix"
)

// Chaos is a wrapping transport that perturbs outbound frames from a
// seeded schedule, mirroring amp.Adversary semantics: rules are
// consulted in installation order on every send, the first Drop
// verdict wins, and delays accumulate. Each rule draws from its own
// SplitMix64 stream, consumed only inside the rule's window, so a run
// with and without a rule differs only by that rule's verdicts — the
// property that makes chaos schedules composable and seed-replayable
// over the deterministic Loopback.
//
// Duplication and delay need a clock: duplicated and delayed copies
// are re-sent through clock.AfterFunc, which on Loopback lands in the
// same deterministic event queue and on TCP on a real timer. Delayed
// frames overtake undelayed ones, so Delay rules double as reordering
// injection.
type Chaos struct {
	inner Transport
	clock Clock
	mu    sync.Mutex
	rules []*chaosRule
	stats Stats
}

// ChaosKind names a chaos rule.
type ChaosKind uint8

// Chaos rule kinds.
const (
	// ChaosDrop drops each frame with probability Pct/100 inside the
	// window.
	ChaosDrop ChaosKind = iota + 1
	// ChaosPartition drops frames crossing the Group/non-Group cut
	// inside the window.
	ChaosPartition
	// ChaosIsolate drops every frame to or from a Group member inside
	// the window.
	ChaosIsolate
	// ChaosDelay adds a uniform extra delay in [1, Pct] ticks to each
	// frame, with probability 1/2, inside the window (reordering).
	ChaosDelay
	// ChaosDuplicate re-sends each frame with probability Pct/100
	// after a short uniform delay inside the window.
	ChaosDuplicate
)

// ChaosRule is one scheduled perturbation.
type ChaosRule struct {
	Kind ChaosKind
	// From and Until bound the active window in clock ticks; Until <= 0
	// means the window never closes.
	From, Until amp.Time
	// Pct is the rule's probability (Drop, Duplicate) or magnitude
	// (Delay) in percent/ticks.
	Pct int
	// Group lists the processes of a partition island or isolation set.
	Group []int
	// Seed seeds the rule's private random stream.
	Seed int64
}

type chaosRule struct {
	ChaosRule
	member map[int]bool
	rng    splitmix.Source
}

// NewChaos wraps inner with the given rule schedule.
func NewChaos(inner Transport, clock Clock, rules ...ChaosRule) *Chaos {
	c := &Chaos{inner: inner, clock: clock}
	for _, r := range rules {
		cr := &chaosRule{ChaosRule: r, rng: splitmix.New(uint64(r.Seed))}
		if len(r.Group) > 0 {
			cr.member = make(map[int]bool, len(r.Group))
			for _, p := range r.Group {
				cr.member[p] = true
			}
		}
		c.rules = append(c.rules, cr)
	}
	return c
}

// Stats returns the chaos counters (Dropped, Duplicated).
func (c *Chaos) Stats() *Stats { return &c.stats }

// Self implements Transport.
func (c *Chaos) Self() int { return c.inner.Self() }

// N implements Transport.
func (c *Chaos) N() int { return c.inner.N() }

// Handle implements Transport (inbound frames pass through untouched;
// chaos is injected at the sender, like amp's adversaries).
func (c *Chaos) Handle(h Handler) { c.inner.Handle(h) }

// Close implements Transport.
func (c *Chaos) Close() error { return c.inner.Close() }

func inChaosWindow(at, from, until amp.Time) bool {
	return at >= from && (until <= 0 || at < until)
}

// Send implements Transport.
func (c *Chaos) Send(to int, frame []byte) error {
	src, at := c.inner.Self(), c.clock.Now()
	drop := false
	var extra amp.Time
	dup := false
	c.mu.Lock()
	for _, r := range c.rules {
		if !inChaosWindow(at, r.From, r.Until) {
			continue
		}
		switch r.Kind {
		case ChaosDrop:
			if !drop && r.rng.Intn(100) < r.Pct {
				drop = true
			}
		case ChaosPartition:
			if !drop && r.member[src] != r.member[to] {
				drop = true
			}
		case ChaosIsolate:
			if !drop && (r.member[src] || r.member[to]) {
				drop = true
			}
		case ChaosDelay:
			if r.Pct > 0 && r.rng.Intn(2) == 0 {
				extra += amp.Time(1 + r.rng.Intn(r.Pct))
			}
		case ChaosDuplicate:
			if r.rng.Intn(100) < r.Pct {
				dup = true
			}
		}
	}
	c.mu.Unlock()
	if drop {
		c.stats.Dropped.Add(1)
		return nil // a dropped frame is a successful send that vanishes
	}
	if dup {
		cp := append([]byte(nil), frame...)
		c.stats.Duplicated.Add(1)
		c.clock.AfterFunc(1+extra, func() { _ = c.inner.Send(to, cp) })
	}
	if extra > 0 {
		cp := append([]byte(nil), frame...)
		c.clock.AfterFunc(extra, func() { _ = c.inner.Send(to, cp) })
		return nil
	}
	return c.inner.Send(to, frame)
}
