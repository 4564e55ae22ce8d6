package local

import (
	"distbasics/internal/knowset"
	"distbasics/internal/round"
)

// Flood is the full-information protocol of §3.2: in round 1 each process
// sends the pair <id, input> to its neighbors; in every later round it
// forwards every pair learned so far. On a reliable synchronous graph of
// diameter D, after D rounds every process knows the whole input vector
// [in_1..in_n] and can therefore compute any function of it.
//
// A Flood process halts after HaltAfter rounds (callers pass the graph
// diameter, or n-1 as a universal upper bound) and applies Fn to the
// gathered input vector to produce its output. A nil Fn returns the vector
// itself. It never halts early, which is what lets §3.3 run it unchanged
// under the TREE message adversary (dynnet.TreeFlood is this type).
//
// Knowledge lives in a knowset.Set, whose shared-prefix payloads make a
// round's sends allocation-free.
type Flood struct {
	// Input is this process's private input in_i.
	Input any
	// HaltAfter is the number of rounds to run before halting.
	HaltAfter int
	// Fn, if non-nil, maps the gathered input vector to the local output.
	// All processes applying the same Fn realizes "compute any function on
	// the input vector".
	Fn func(vector []any) any

	id, n     int
	known     knowset.Set
	knewAllAt int // first round at which known covered all n processes; 0 if never
}

var _ round.Process = (*Flood)(nil)

// Init implements round.Process.
func (p *Flood) Init(env round.Env) {
	p.id = env.ID
	p.n = env.N
	p.known.Reset(p.n, p.id, p.Input)
	p.knewAllAt = 0
}

// Send implements round.Process: forward all known pairs to every neighbor.
func (p *Flood) Send(_ int, out round.Outbox) {
	out.Broadcast(p.known.Payload())
}

// Compute implements round.Process.
func (p *Flood) Compute(r int, in round.Inbox) bool {
	for k := 0; k < in.Deg(); k++ {
		if m := in.At(k); m != nil {
			if pairs, ok := m.([]knowset.Pair); ok {
				p.known.Merge(pairs)
			}
		}
	}
	if p.knewAllAt == 0 && p.known.Complete() {
		p.knewAllAt = r
	}
	return r >= p.HaltAfter
}

// Output implements round.Process. If the process gathered the full vector
// it returns Fn(vector) (or the vector when Fn is nil); otherwise it
// returns nil, signalling incomplete knowledge.
func (p *Flood) Output() any {
	vec := p.known.Vector()
	if vec == nil {
		return nil
	}
	if p.Fn == nil {
		return vec
	}
	return p.Fn(vec)
}

// KnewAllAt returns the first round at which this process knew every input,
// or 0 if it never did (or if it knew everything initially, n=1).
func (p *Flood) KnewAllAt() int { return p.knewAllAt }

// NewFlood returns one Flood process per vertex with inputs[i] as process
// i's input, all halting after haltAfter rounds and applying fn.
func NewFlood(inputs []any, haltAfter int, fn func([]any) any) []round.Process {
	procs := make([]round.Process, len(inputs))
	for i := range procs {
		procs[i] = &Flood{Input: inputs[i], HaltAfter: haltAfter, Fn: fn}
	}
	return procs
}
