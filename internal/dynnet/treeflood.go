// Package dynnet implements the dynamic-network results of §3.3 of the
// paper: computing under the TREE message adversary (where the
// communication graph is an arbitrary, per-round-changing spanning tree)
// and an exhaustive execution explorer that separates the adv:∅ model from
// the TOUR adversary on agreement tasks.
//
// The protocol is §3.2's, unchanged (local.Flood); only the adversary is
// §3.3's (internal/madv), and the result is that the same algorithm
// still gathers every input.
package dynnet

import (
	"distbasics/internal/local"
	"distbasics/internal/round"
)

// TreeFlood is the dissemination protocol of §3.3's TREE-adversary
// argument: §3.2's full-information flooding as it stands. The paper's
// partition argument (yes_i/no_i sets joined by some tree edge) shows
// every input reaches every process in at most n-1 rounds however the
// tree changes. Its premise — everybody keeps forwarding — is Flood's
// behaviour: no process halts before HaltAfter rounds.
type TreeFlood = local.Flood

// NewTreeFlood builds one TreeFlood process per input, all running for the
// given number of rounds (use n-1 to match the paper's bound).
func NewTreeFlood(inputs []any, rounds int) []round.Process {
	return local.NewFlood(inputs, rounds, nil)
}

// DisseminationTime returns the latest KnewAllAt over all processes: the
// rounds needed for every input to reach every process, if it did at all.
func DisseminationTime(procs []round.Process) (rounds int, complete bool) {
	complete = true
	for _, rp := range procs {
		p, ok := rp.(*TreeFlood)
		if !ok {
			return 0, false
		}
		// 0: it never knew all (or, alone, always did).
		complete = complete && (p.KnewAllAt() > 0 || len(procs) == 1)
		rounds = max(rounds, p.KnewAllAt())
	}
	return rounds, complete
}
