package local

import (
	"distbasics/internal/round"
)

// MISRing computes a maximal independent set of a ring in the LOCAL
// model — the companion problem to coloring in §3.2's program of
// "classifying problems as locally computable or not" [43]: once a
// 3-coloring is known, an MIS follows in 3 more rounds (one per color
// class), for log*n + O(1) total — still exponentially below the
// diameter.
//
// Phase 1 delegates to Cole–Vishkin until it halts with a color in
// {0,1,2}. Phase 2 runs three rounds: in color-class round c, a vertex
// of color c joins the MIS unless a neighbor already joined; everyone
// forwards their membership flag each round.
type MISRing struct {
	cv *ColeVishkin

	colored  bool
	cvRounds int

	phase2Round int // 0,1,2 = color-class rounds
	inMIS       bool
	decided     bool
	nbrInMIS    bool
	totalRounds int
}

var _ round.Process = (*MISRing)(nil)

// misFlag is the phase-2 message: whether the sender is in the MIS.
type misFlag struct {
	InMIS bool
}

// NewMISRing builds one MIS process per ring vertex.
func NewMISRing(n int) []round.Process {
	cvs := NewColeVishkinRing(n)
	procs := make([]round.Process, n)
	for i := range procs {
		procs[i] = &MISRing{cv: cvs[i].(*ColeVishkin)}
	}
	return procs
}

// Init implements round.Process.
func (p *MISRing) Init(env round.Env) {
	p.cv.Init(env)
}

// Send implements round.Process.
func (p *MISRing) Send(r int, out round.Outbox) {
	if !p.colored {
		p.cv.Send(r, out)
		return
	}
	out.Broadcast(misFlag{InMIS: p.inMIS})
}

// Compute implements round.Process.
func (p *MISRing) Compute(r int, in round.Inbox) bool {
	if !p.colored {
		if halted := p.cv.Compute(r, in); halted {
			p.colored = true
			p.cvRounds = p.cv.Rounds()
		}
		p.totalRounds = r
		return false // keep participating: phase 2 follows
	}

	// Phase 2: one round per color class.
	for k := 0; k < in.Deg(); k++ {
		if f, ok := in.At(k).(misFlag); ok && f.InMIS {
			p.nbrInMIS = true
		}
	}
	myColor := p.cv.Output().(int)
	if !p.decided && myColor == p.phase2Round {
		p.inMIS = !p.nbrInMIS
		p.decided = true
	}
	p.phase2Round++
	p.totalRounds = r
	return p.phase2Round >= 3
}

// Output implements round.Process: true iff the vertex is in the MIS.
func (p *MISRing) Output() any { return p.inMIS }

// Rounds returns the total rounds this process ran (coloring + 3).
func (p *MISRing) Rounds() int { return p.totalRounds }

// VerifyMIS checks independence and maximality of the membership vector
// on a ring of its length.
func VerifyMIS(inMIS []bool) bool {
	n := len(inMIS)
	if n == 0 {
		return false
	}
	if n == 1 {
		return inMIS[0]
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		if inMIS[i] && inMIS[next] {
			return false // not independent
		}
	}
	for i := 0; i < n; i++ {
		prev := (i - 1 + n) % n
		next := (i + 1) % n
		if !inMIS[i] && !inMIS[prev] && !inMIS[next] {
			return false // not maximal
		}
	}
	return true
}
