package local

import (
	"math/bits"

	"distbasics/internal/round"
)

// ColeVishkin is the deterministic ring 3-coloring algorithm of Cole and
// Vishkin (§3.2, [17] in the paper): starting from the unique process ids
// as colors, each iteration shrinks the color space from K to
// 2*BitLen(K-1) by comparing a process's color with its ring predecessor's;
// after CVIterations(n) rounds colors fit in {0..5}, and three final rounds
// eliminate colors 5, 4, 3. Total: CVIterations(n) + 3 rounds, which is
// log*n + O(1) — asymptotically optimal by Linial's Ω(log*n) lower bound
// ([43] in the paper).
//
// The ring is oriented: the process at vertex i treats vertex (i+1) mod n
// as its successor. The orientation is part of the model, as in the
// original algorithm.
type ColeVishkin struct {
	id, n    int
	color    int
	cvRounds int // iterations of the bit-trick phase
	done     bool
	rounds   int // rounds actually executed (for reporting)

	// Mailbox slot indices of succ/pred in Env.Neighbors order, -1 when the
	// vertex is not actually adjacent (then nothing is sent that way).
	succSlot, predSlot int
}

var _ round.Process = (*ColeVishkin)(nil)

// Init implements round.Process.
func (p *ColeVishkin) Init(env round.Env) {
	p.id = env.ID
	p.n = env.N
	succ := (env.ID + 1) % env.N
	pred := (env.ID - 1 + env.N) % env.N
	p.color = env.ID
	p.cvRounds = CVIterations(env.N)
	p.done = false
	p.rounds = 0
	p.succSlot, p.predSlot = -1, -1
	for k, nb := range env.Neighbors {
		if nb == succ {
			p.succSlot = k
		}
		if nb == pred {
			p.predSlot = k
		}
	}
}

// Send implements round.Process. During the bit-trick phase a process sends
// its color to its successor only; during the 6→3 reduction it sends to
// both neighbors. The color is boxed once per round.
func (p *ColeVishkin) Send(r int, out round.Outbox) {
	m := round.Message(p.color)
	if p.succSlot >= 0 {
		out.Put(p.succSlot, m)
	}
	if r > p.cvRounds && p.predSlot >= 0 {
		out.Put(p.predSlot, m)
	}
}

// Compute implements round.Process.
func (p *ColeVishkin) Compute(r int, in round.Inbox) bool {
	p.rounds = r
	if r <= p.cvRounds {
		if p.predSlot < 0 {
			return false
		}
		prevRaw := in.At(p.predSlot)
		if prevRaw == nil {
			// Adversary-free model: this cannot happen on a ring; keep the
			// color unchanged to stay safe if it does.
			return false
		}
		p.color = cvStep(p.color, prevRaw.(int))
		return false
	}
	// Reduction rounds: eliminate color (5, then 4, then 3).
	target := 5 - (r - p.cvRounds - 1)
	if p.color == target {
		var used [3]bool
		for k := 0; k < in.Deg(); k++ {
			if m := in.At(k); m != nil {
				if c := m.(int); c < 3 {
					used[c] = true
				}
			}
		}
		for c := 0; c < 3; c++ {
			if !used[c] {
				p.color = c
				break
			}
		}
	}
	return r == p.cvRounds+3
}

// Output implements round.Process: the final color.
func (p *ColeVishkin) Output() any { return p.color }

// Rounds returns the number of rounds this process executed.
func (p *ColeVishkin) Rounds() int { return p.rounds }

// cvStep performs one Cole–Vishkin color-reduction step: given my color and
// my predecessor's color (guaranteed different), return 2k+b where k is the
// index of the lowest bit at which they differ and b is my bit there.
func cvStep(mine, prev int) int {
	diff := mine ^ prev
	k := bits.TrailingZeros(uint(diff))
	b := (mine >> k) & 1
	return 2*k + b
}

// NewColeVishkinRing returns one ColeVishkin process per vertex for a ring
// of n processes (n >= 3).
func NewColeVishkinRing(n int) []round.Process {
	procs := make([]round.Process, n)
	for i := range procs {
		procs[i] = &ColeVishkin{}
	}
	return procs
}

// VerifyColoring checks that colors is a proper coloring of the n-ring
// using at most maxColors colors, returning false on any violation.
func VerifyColoring(colors []int, maxColors int) bool {
	n := len(colors)
	if n == 0 {
		return false
	}
	for i, c := range colors {
		if c < 0 || c >= maxColors {
			return false
		}
		if colors[i] == colors[(i+1)%n] && n > 1 {
			return false
		}
	}
	return true
}
