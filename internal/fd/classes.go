package fd

import (
	"distbasics/internal/amp"
)

// The Chandra–Toueg classes [15] that complement Ω (§5.3 of the paper),
// each a row of the package table: the Detector of fd.go under that
// row's timeout rule, plus the row's read-out. Nothing else differs —
// which is precisely the paper's point that "failure detectors can be
// seen as objects that abstract underlying synchrony assumptions". A
// class hosts like any Detector (its own slot of an amp.Stack) and
// keeps the whole Detector surface: ◇S's Leader is the classical
// Ω-from-◇S reduction, leader := the smallest id currently trusted.

// perfectBound is P's synchrony assumption: no heartbeat takes longer.
const perfectBound amp.Time = 10

// The rules beside fd.go's addStep, as Detector.adapt takes them.

// keep is P's: being wrong teaches it nothing.
func keep(_ *Detector, timeout amp.Time) amp.Time { return timeout }

// doubleSlack is ◇P's: the slack over one heartbeat period doubles.
func doubleSlack(d *Detector, timeout amp.Time) amp.Time { return d.Period + 2*(timeout-d.Period) }

// Perfect is the failure detector P: strong completeness (every crashed
// process is eventually suspected by every correct process) and strong
// accuracy (no process is suspected before it crashes). Its rule is the
// table's first row: silence longer than Period plus the assumed bound
// means "crashed", and no evidence to the contrary ever moves that
// timeout. Accuracy is sound only if the bound really bounds heartbeat
// latency — P is implementable in synchronous systems and only there,
// which is why the asynchronous world of §5.3 needs Ω instead. Its
// FalseSuspicions stays 0 while the bound holds: the defining property
// of P.
type Perfect struct{ *Detector }

// NewPerfect returns a perfect failure detector for n processes:
// heartbeat period 4, assumed latency bound 10.
func NewPerfect(n int) *Perfect {
	d := NewDetector(n)
	d.Period = 4
	d.InitialTimeout = d.Period + perfectBound
	d.firstSweep = d.InitialTimeout
	d.adapt = keep
	return &Perfect{d}
}

// EventuallyPerfect is ◇P: strong completeness plus *eventual* strong
// accuracy. Its rule is the table's second row: an optimistic slack
// over one heartbeat period, doubled on every false suspicion, so after
// the system's Global Stabilization Time the timeout exceeds the true
// bound and suspicions become permanent-crash-only. ◇P suffices to
// build Ω, and is implementable in partially synchronous systems
// ([21, 22] via §5.3).
type EventuallyPerfect struct{ *Detector }

// NewEventuallyPerfect returns a ◇P detector for n processes: heartbeat
// period 4, initial slack 2.
func NewEventuallyPerfect(n int) *EventuallyPerfect {
	d := NewDetector(n)
	d.Period = 4
	d.InitialTimeout = d.Period + 2
	d.adapt = doubleSlack
	return &EventuallyPerfect{d}
}

// FalseSuspicions returns the count of accuracy violations and the time
// of the last one — after stabilization the count stops growing, which
// is ◇P's "eventual" accuracy made measurable.
func (p *EventuallyPerfect) FalseSuspicions() (int, amp.Time) {
	return p.falseSuspicions, p.lastFalse
}

// EventuallyStrong is ◇S, the weakest Chandra–Toueg class that solves
// consensus with a majority of correct processes [15]: strong
// completeness plus *eventual weak* accuracy — SOME correct process is
// eventually never suspected by any correct process. A ◇P detector
// trivially satisfies ◇S (eventual strong accuracy implies eventual
// weak accuracy), so ◇S is ◇P's rule with the ◇S-level read-out.
type EventuallyStrong struct{ *Detector }

// NewEventuallyStrong returns a ◇S detector for n processes.
func NewEventuallyStrong(n int) *EventuallyStrong {
	return &EventuallyStrong{NewEventuallyPerfect(n).Detector}
}

// Trusted reports ◇S's defining output: some process this detector
// currently does not suspect (the eventual-weak-accuracy witness). It
// returns the smallest non-suspected id.
func (s *EventuallyStrong) Trusted() int {
	for i, suspected := range s.suspected {
		if !suspected {
			return i
		}
	}
	return -1 // not in a run: a process never suspects itself
}
