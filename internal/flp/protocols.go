package flp

import "math/bits"

// One deterministic candidate protocol for binary consensus, under the
// one parameter it has: flood your input, decide the minimum of the
// first q values you hear (your own included). Exhaustive exploration
// shows each natural choice of q loses one horn of the FLP dilemma
// under a single crash: q = n (WaitAll) sacrifices termination,
// q = ⌊n/2⌋+1 (WaitMajority) sacrifices agreement. No deterministic
// protocol can keep both — that is the content of [23], demonstrated
// rather than proved here.

// waState is a process's state: the values heard so far (indexed by
// sender) and the decision, if any.
type waState struct {
	// Heard is a bitmask of processes heard from (bit i = value from i).
	Heard int
	// Vals packs heard values: bit i set means process i sent 1.
	Vals int
	// Decided is -1 before deciding.
	Decided int
}

// waitFor is the protocol: n processes, decide on hearing q values.
type waitFor struct{ n, q int }

func (p waitFor) initial(pid int, input int) (State, []Outgoing) {
	s := waState{Heard: 1 << uint(pid), Vals: input << uint(pid), Decided: -1}
	outs := make([]Outgoing, 0, p.n-1)
	for i := 0; i < p.n; i++ {
		if i != pid {
			outs = append(outs, Outgoing{To: i, Body: input})
		}
	}
	return p.maybeDecide(s), outs
}

func (p waitFor) deliver(st State, from int, body any) (State, []Outgoing) {
	s := st.(waState)
	if s.Decided >= 0 {
		return s, nil // decision is irrevocable; late values ignored
	}
	s.Heard |= 1 << uint(from)
	if body.(int) == 1 {
		s.Vals |= 1 << uint(from)
	}
	return p.maybeDecide(s), nil
}

// maybeDecide decides the minimum heard once q values are in: 0 if some
// heard process sent 0.
func (p waitFor) maybeDecide(s waState) waState {
	if bits.OnesCount(uint(s.Heard)) >= p.q {
		s.Decided = 1
		if s.Heard&^s.Vals != 0 {
			s.Decided = 0
		}
	}
	return s
}

func decision(st State) (int, bool) {
	s := st.(waState)
	return s.Decided, s.Decided >= 0
}

// WaitAll is the protocol at q = n: wait for every process's value.
// With no crashes it solves consensus; a single pre-send crash makes
// every correct process wait forever (termination violation). It never
// violates agreement.
type WaitAll struct {
	// Procs is the number of processes.
	Procs int
}

// WaitMajority is the protocol at q = ⌊n/2⌋+1. It always terminates
// under a minority of crashes, but exhaustive search finds schedules in
// which two correct processes decide differently (agreement violation)
// — the other horn of the dilemma.
type WaitMajority struct {
	// Procs is the number of processes.
	Procs int
}

var _, _ Protocol = WaitAll{}, WaitMajority{}

func (p WaitAll) rule() waitFor      { return waitFor{n: p.Procs, q: p.Procs} }
func (p WaitMajority) rule() waitFor { return waitFor{n: p.Procs, q: p.Procs/2 + 1} }

// N, Initial, Deliver and Decision implement Protocol, all by rule().

func (p WaitAll) N() int                                  { return p.Procs }
func (p WaitAll) Initial(pid, in int) (State, []Outgoing) { return p.rule().initial(pid, in) }
func (p WaitAll) Decision(st State) (int, bool)           { return decision(st) }
func (p WaitAll) Deliver(_ int, st State, from int, body any) (State, []Outgoing) {
	return p.rule().deliver(st, from, body)
}

func (p WaitMajority) N() int                                  { return p.Procs }
func (p WaitMajority) Initial(pid, in int) (State, []Outgoing) { return p.rule().initial(pid, in) }
func (p WaitMajority) Decision(st State) (int, bool)           { return decision(st) }
func (p WaitMajority) Deliver(_ int, st State, from int, body any) (State, []Outgoing) {
	return p.rule().deliver(st, from, body)
}
