package dynnet

import (
	"fmt"

	"distbasics/internal/round"
)

// FloodMin is the natural synchronous consensus protocol: every round, every
// process broadcasts the smallest value it has seen; after Rounds rounds it
// decides that minimum. On a reliable complete graph (adv:∅) one round
// suffices for consensus. Under the TOUR adversary, FloodMin can violate
// agreement: the adversary may starve one direction of a channel forever,
// so the process holding the global minimum may never export it to a given
// peer. Package tests use Explorer to find such a schedule exhaustively —
// an executable echo of §3.3's equivalence of SMPn[adv:TOUR] with the
// wait-free read/write model, where consensus is impossible (FLP/Herlihy).
type FloodMin struct {
	// Input is the proposed value.
	Input int
	// Rounds is the number of rounds before deciding.
	Rounds int

	min     int
	decided bool
}

var _ round.Process = (*FloodMin)(nil)

// Init implements round.Process.
func (p *FloodMin) Init(env round.Env) {
	p.min = p.Input
	p.decided = false
}

// Send implements round.Process.
func (p *FloodMin) Send(_ int, out round.Outbox) { out.Broadcast(p.min) }

// Compute implements round.Process.
func (p *FloodMin) Compute(r int, in round.Inbox) bool {
	for k := 0; k < in.Deg(); k++ {
		if v, ok := in.At(k).(int); ok && v < p.min {
			p.min = v
		}
	}
	if r >= p.Rounds {
		p.decided = true
		return true
	}
	return false
}

// Output implements round.Process: the decided minimum.
func (p *FloodMin) Output() any { return p.min }

// NewFloodMin builds FloodMin processes with the given inputs and round
// budget.
func NewFloodMin(inputs []int, rounds int) func() []round.Process {
	return func() []round.Process {
		procs := make([]round.Process, len(inputs))
		for i := range procs {
			procs[i] = &FloodMin{Input: inputs[i], Rounds: rounds}
		}
		return procs
	}
}

// CheckConsensus validates consensus's agreement and validity properties on
// integer outputs given the proposed inputs: every output must equal every
// other, and must be one of the inputs. It returns "" when both hold.
func CheckConsensus(inputs []int) func(outputs []any) string {
	proposed := make(map[int]bool, len(inputs))
	for _, v := range inputs {
		proposed[v] = true
	}
	return func(outputs []any) string {
		var first int
		for i, o := range outputs {
			v, ok := o.(int)
			if !ok {
				return fmt.Sprintf("process %d produced non-int output %v", i, o)
			}
			if !proposed[v] {
				return fmt.Sprintf("validity violated: process %d decided %d, never proposed", i, v)
			}
			if i == 0 {
				first = v
			} else if v != first {
				return fmt.Sprintf("agreement violated: process 0 decided %d, process %d decided %d", first, i, v)
			}
		}
		return ""
	}
}
