package amp

import "math/rand"

// This file is the simulator's network-fault surface. The paper's
// asynchronous algorithms are only as trustworthy as the adversarial
// schedules they are exercised under, so the Sim exposes a pluggable
// Adversary interface instead of ad-hoc drop hooks: message loss,
// network partitions that heal, and timing skew are all expressed as
// composable adversaries installed with WithAdversary. An adversary
// judges messages only; process faults are the Sim's own
// CrashAt/KillAt/RecoverAt.
//
// Adversaries carry their own seeded randomness (never the simulator's
// delay stream), so installing one cannot perturb message delays or
// per-process random draws — a run with and without an adversary differs
// only by the adversary's own verdicts.

// Verdict is an adversary's decision on one message.
type Verdict struct {
	// Drop discards the message (it counts as sent and dropped, never
	// delivered). AMPn,t[∅] channels are reliable, so protocols relying on
	// that must only face drops in "what if" liveness probes like E9's
	// t >= n/2 case.
	Drop bool
	// Skew is added to the delay model's chosen delay (timing skew: slow
	// links, overloaded processes). The total delay is clamped to >= 1.
	Skew Time
}

// Adversary perturbs the network. Judge is consulted on every send to
// another process (a message to itself is a step of its turn, no
// channel's), in installation order: the first Drop verdict wins, Skews
// accumulate.
// Implementations must be deterministic given their own seeded state.
type Adversary interface {
	Judge(src, dst int, at Time) Verdict
}

// AdversaryFunc adapts a function to Adversary.
type AdversaryFunc func(src, dst int, at Time) Verdict

// Judge implements Adversary.
func (f AdversaryFunc) Judge(src, dst int, at Time) Verdict { return f(src, dst, at) }

// WithAdversary installs one or more adversaries, consulted in order on
// every send to another process.
func WithAdversary(advs ...Adversary) SimOption {
	return func(s *Sim) { s.advs = append(s.advs, advs...) }
}

// inWindow reports whether at lies in [from, until); until <= 0 means the
// window never closes.
func inWindow(at, from, until Time) bool {
	return at >= from && (until <= 0 || at < until)
}

// dropAdv drops messages independently at random inside a window.
type dropAdv struct {
	rng         *rand.Rand
	p           float64
	from, until Time
}

// NewDropWindow returns an adversary that drops each message sent in
// [from, until) (until <= 0: forever) with probability p, from its own
// stream seeded with seed. Outside the window it draws nothing, so the
// post-window network is exactly the adversary-free one.
func NewDropWindow(seed int64, p float64, from, until Time) Adversary {
	return &dropAdv{rng: newRand(seed), p: p, from: from, until: until}
}

// Judge implements Adversary.
func (d *dropAdv) Judge(_, _ int, at Time) Verdict {
	if !inWindow(at, d.from, d.until) {
		return Verdict{}
	}
	return Verdict{Drop: d.rng.Float64() < d.p}
}

// partitionAdv splits the network into islands during a window.
type partitionAdv struct {
	island      map[int]int
	rest        int
	from, until Time
}

// Partition returns an adversary that splits the network into islands
// during [from, until): messages between different islands are dropped;
// traffic inside an island is untouched. Processes not listed in any
// island form one implicit island together. until <= 0 means the
// partition never heals; otherwise it heals at until (messages already
// lost stay lost — protocols without retransmission keep any operation
// whose quorum messages fell in the window blocked forever, which is
// exactly the behavior the E9 partition scenarios probe).
func Partition(from, until Time, islands ...[]int) Adversary {
	m := make(map[int]int)
	for i, g := range islands {
		for _, p := range g {
			m[p] = i
		}
	}
	return &partitionAdv{island: m, rest: len(islands), from: from, until: until}
}

// Judge implements Adversary.
func (pa *partitionAdv) Judge(src, dst int, at Time) Verdict {
	if !inWindow(at, pa.from, pa.until) {
		return Verdict{}
	}
	si, ok := pa.island[src]
	if !ok {
		si = pa.rest
	}
	di, ok := pa.island[dst]
	if !ok {
		di = pa.rest
	}
	return Verdict{Drop: si != di}
}

// Isolate returns an adversary that cuts every listed process off the
// network during [from, until) (until <= 0 = forever): all messages to or
// from an isolated process are dropped, including between two isolated
// processes (not its messages to itself). To the rest of the system
// this is indistinguishable from the
// victims crashing at from — the "bounded drops" regime under which a
// t-resilient algorithm must still terminate when at most t processes are
// isolated.
func Isolate(from, until Time, pids ...int) Adversary {
	cut := make(map[int]bool, len(pids))
	for _, p := range pids {
		cut[p] = true
	}
	return AdversaryFunc(func(src, dst int, at Time) Verdict {
		return Verdict{Drop: inWindow(at, from, until) && (cut[src] || cut[dst])}
	})
}

// SkewLinks returns a timing-skew adversary: every message matched by
// match (nil = every message) takes extra additional time units. Skew
// models asymmetric link speeds and laggy processes without changing the
// delay model itself.
func SkewLinks(extra Time, match func(src, dst int) bool) Adversary {
	return AdversaryFunc(func(src, dst int, _ Time) Verdict {
		if match == nil || match(src, dst) {
			return Verdict{Skew: extra}
		}
		return Verdict{}
	})
}
