// Package dynnet implements the dynamic-network results of §3.3 of the
// paper: computing under the TREE message adversary (where the
// communication graph is an arbitrary, per-round-changing spanning tree)
// and an exhaustive execution explorer that separates the adv:∅ model from
// the TOUR adversary on agreement tasks.
package dynnet

import (
	"distbasics/internal/knowset"
	"distbasics/internal/round"
)

// TreeFlood is the dissemination protocol of §3.3's TREE-adversary
// argument: every round, every process sends every <id, input> pair it
// knows to all its neighbors; the adversary delivers only along the
// current spanning tree. The partition argument in the paper (yes_i/no_i
// sets joined by some tree edge) shows every input reaches every process
// in at most n-1 rounds regardless of how the tree changes.
//
// Processes do not halt early: they run for exactly Rounds rounds so the
// partition argument's premise (everybody keeps forwarding) holds, and
// they record the first round at which they knew all inputs.
//
// Knowledge lives in a knowset.Set, whose shared-prefix payloads make a
// round's sends allocation-free.
type TreeFlood struct {
	// Input is this process's initial value v_i.
	Input any
	// Rounds is the fixed number of rounds to execute (use n-1 to match the
	// paper's bound).
	Rounds int

	id, n     int
	known     knowset.Set
	knewAllAt int
}

var _ round.Process = (*TreeFlood)(nil)

// Init implements round.Process.
func (p *TreeFlood) Init(env round.Env) {
	p.id = env.ID
	p.n = env.N
	p.known.Reset(p.n, p.id, p.Input)
	p.knewAllAt = 0
}

// Send implements round.Process: forward all known pairs to every neighbor.
func (p *TreeFlood) Send(_ int, out round.Outbox) {
	out.Broadcast(p.known.Payload())
}

// Compute implements round.Process.
func (p *TreeFlood) Compute(r int, in round.Inbox) bool {
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
	return r >= p.Rounds
}

// Output implements round.Process: the gathered input vector (nil if
// incomplete), plus dissemination metadata via KnewAllAt.
func (p *TreeFlood) Output() any {
	vec := p.known.Vector()
	if vec == nil {
		return nil
	}
	return vec
}

// KnewAllAt returns the first round at which the process knew every input
// (0 = never, or initially for n=1).
func (p *TreeFlood) KnewAllAt() int { return p.knewAllAt }

// NewTreeFlood builds one TreeFlood process per input, all running for the
// given number of rounds.
func NewTreeFlood(inputs []any, rounds int) []round.Process {
	procs := make([]round.Process, len(inputs))
	for i := range procs {
		procs[i] = &TreeFlood{Input: inputs[i], Rounds: rounds}
	}
	return procs
}

// DisseminationTime returns the latest KnewAllAt over all processes, i.e.
// the number of rounds needed for every input to reach every process, and
// whether dissemination completed at all.
func DisseminationTime(procs []round.Process) (rounds int, complete bool) {
	complete = true
	for _, rp := range procs {
		p, ok := rp.(*TreeFlood)
		if !ok {
			return 0, false
		}
		if !p.known.Complete() {
			complete = false
			continue
		}
		if p.knewAllAt > rounds {
			rounds = p.knewAllAt
		}
	}
	return rounds, complete
}
