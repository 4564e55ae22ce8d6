// Package agreement implements the agreement abstractions of §4 of the
// paper: the consensus object and its constructions from the hardware
// primitives of Herlihy's hierarchy (§4.2), obstruction-free consensus and
// k-set agreement from read/write registers only (§4.3), k-simultaneous
// consensus, and abortable objects.
//
// This file holds the §4.2 constructions. The level-∞ objects each get
// their own protocol; the level-2 objects share one, Consensus2, whose
// only parameter is the operation the two processes race on.
package agreement

import (
	"fmt"

	"distbasics/internal/shm"
)

// Consensus is the one-shot consensus object of §4.2: Propose returns the
// single decided value; Validity, Agreement, Integrity and Termination as
// defined in the paper. Implementations differ in which base objects they
// use and for how many processes they are correct (their consensus
// number).
type Consensus interface {
	Propose(p *shm.Proc, v any) any
}

// CASConsensus solves n-process wait-free consensus from one
// compare&swap object (consensus number +∞): the first CAS from the unset
// sentinel wins.
type CASConsensus struct {
	cell *shm.CompareAndSwap
}

// casUnset is the private sentinel for "no decision yet" (nil must remain
// available to users as a proposable value is NOT supported; proposals must
// be non-nil, which the constructor documents).
type casUnsetType struct{}

var casUnset = casUnsetType{}

// NewCASConsensus returns a consensus object for any number of processes.
// Proposed values must be comparable and non-nil.
func NewCASConsensus() *CASConsensus {
	return &CASConsensus{cell: shm.NewCompareAndSwap(casUnset)}
}

// Propose implements Consensus.
func (c *CASConsensus) Propose(p *shm.Proc, v any) any {
	c.cell.CompareAndSwap(p, casUnset, v)
	return c.cell.Read(p)
}

// LLSCConsensus solves n-process wait-free consensus from one LL/SC cell
// (consensus number +∞).
type LLSCConsensus struct {
	cell *shm.LLSC
}

// NewLLSCConsensus returns a consensus object for any number of processes.
func NewLLSCConsensus() *LLSCConsensus {
	return &LLSCConsensus{cell: shm.NewLLSC(casUnset)}
}

// Propose implements Consensus.
func (c *LLSCConsensus) Propose(p *shm.Proc, v any) any {
	for {
		cur := c.cell.LL(p)
		if cur != any(casUnset) {
			return cur
		}
		if c.cell.SC(p, v) {
			return v
		}
		// SC failed: someone else's SC succeeded, so the next LL returns a
		// decided value; the loop runs at most twice.
	}
}

// StickyConsensus solves n-process wait-free BINARY consensus from one
// sticky bit (consensus number +∞ per §4.2; multivalued consensus follows
// by bit-by-bit agreement, see StickyMultiConsensus).
type StickyConsensus struct {
	bit *shm.StickyBit
}

// NewStickyConsensus returns a binary consensus object (propose 0 or 1).
func NewStickyConsensus() *StickyConsensus {
	return &StickyConsensus{bit: shm.NewStickyBit()}
}

// Propose implements Consensus for values 0 and 1. Other values panic
// (programmer error).
func (c *StickyConsensus) Propose(p *shm.Proc, v any) any {
	b, ok := v.(int)
	if !ok || (b != 0 && b != 1) {
		panic(fmt.Sprintf("agreement: StickyConsensus requires 0 or 1, got %v", v))
	}
	return c.bit.Set(p, b)
}

// Consensus2 is the one 2-process wait-free protocol every object at
// level 2 of the hierarchy solves consensus by (§4.2): the two processes
// publish their proposals in two registers, then race on the object; the
// winner decides its own value, the loser adopts the winner's. The one
// parameter is the race: wins is a single operation on the level-2
// object that answers true to exactly the first process to apply it.
// Each constructor below supplies that step and nothing else.
type Consensus2 struct {
	prefs *shm.RegisterArray
	wins  func(p *shm.Proc) bool
}

func newConsensus2(wins func(p *shm.Proc) bool) *Consensus2 {
	return &Consensus2{prefs: shm.NewRegisterArray(2, nil), wins: wins}
}

// Propose implements Consensus for p.ID() in {0, 1}.
func (c *Consensus2) Propose(p *shm.Proc, v any) any {
	id := p.ID()
	c.prefs.Reg(id).Write(p, v)
	if c.wins(p) {
		return v
	}
	return c.prefs.Reg(1 - id).Read(p) // loser adopts the winner's proposal
}

// NewTASConsensus2 races on one test&set object (consensus number of
// Test&Set is 2): the process that finds it unset wins.
func NewTASConsensus2() *Consensus2 {
	tas := shm.NewTestAndSet()
	return newConsensus2(func(p *shm.Proc) bool { return !tas.TestAndSet(p) })
}

// NewQueueConsensus2 races on one atomic queue pre-loaded with a winner
// token and a loser token (consensus number of a queue is 2): the
// process that dequeues the winner token wins.
func NewQueueConsensus2() *Consensus2 {
	const tokenWin, tokenLose = "WIN", "LOSE"
	queue := shm.NewQueue(tokenWin, tokenLose)
	return newConsensus2(func(p *shm.Proc) bool {
		tok, ok := queue.Deq(p)
		return ok && tok == tokenWin
	})
}

// NewFAAConsensus2 races on one fetch&add object (consensus number of
// Fetch&Add is 2): the process that increments first wins.
func NewFAAConsensus2() *Consensus2 {
	ctr := shm.NewFetchAndAdd(0)
	return newConsensus2(func(p *shm.Proc) bool { return ctr.Add(p, 1) == 0 })
}

// swapToken is the neutral initial content of the swap register.
type swapToken struct{}

// NewSwapConsensus2 races on one atomic swap register — swap is one of
// §4.2's "many others" at hierarchy level 2 ([32]). Each process swaps
// its own marker into a register initialized with a neutral token:
// whoever swaps first gets the token back and wins; the other gets the
// winner's marker.
func NewSwapConsensus2() *Consensus2 {
	swp := shm.NewSwap(swapToken{})
	return newConsensus2(func(p *shm.Proc) bool {
		_, neutral := swp.Swap(p, p.ID()).(swapToken)
		return neutral
	})
}

// NaiveRegisterConsensus is a NATURAL BUT INCORRECT attempt at consensus
// from registers only (write your value, then read the other's; prefer the
// smaller id's value if both visible). It exists so the exhaustive
// explorer can exhibit the §4.2 impossibility empirically: for every such
// protocol some schedule violates agreement; the hierarchy tests show the
// explorer finds one for this protocol.
type NaiveRegisterConsensus struct {
	prefs *shm.RegisterArray
}

// NewNaiveRegisterConsensus returns the (incorrect) register-only protocol
// for n processes.
func NewNaiveRegisterConsensus(n int) *NaiveRegisterConsensus {
	return &NaiveRegisterConsensus{prefs: shm.NewRegisterArray(n, nil)}
}

// Propose implements Consensus — incorrectly, by design.
func (c *NaiveRegisterConsensus) Propose(p *shm.Proc, v any) any {
	c.prefs.Reg(p.ID()).Write(p, v)
	for i := 0; i < c.prefs.Len(); i++ {
		if w := c.prefs.Reg(i).Read(p); w != nil {
			return w // first visible proposal in id order
		}
	}
	return v
}

// TASConsensusN is the NATURAL BUT INCORRECT generalization of
// Consensus2 over Test&Set to n >= 3 processes (the loser adopts the
// value of the lowest-id other process it sees). The hierarchy tests use
// the exhaustive explorer to find an agreement violation at n = 3,
// demonstrating that the consensus number of Test&Set is exactly 2, not
// merely at least 2.
type TASConsensusN struct {
	prefs *shm.RegisterArray
	tas   *shm.TestAndSet
}

// NewTASConsensusN returns the (incorrect for n >= 3) protocol.
func NewTASConsensusN(n int) *TASConsensusN {
	return &TASConsensusN{prefs: shm.NewRegisterArray(n, nil), tas: shm.NewTestAndSet()}
}

// Propose implements Consensus — incorrectly for n >= 3, by design.
func (c *TASConsensusN) Propose(p *shm.Proc, v any) any {
	c.prefs.Reg(p.ID()).Write(p, v)
	if !c.tas.TestAndSet(p) {
		return v
	}
	for i := 0; i < c.prefs.Len(); i++ {
		if i == p.ID() {
			continue
		}
		if w := c.prefs.Reg(i).Read(p); w != nil {
			return w
		}
	}
	return v
}
