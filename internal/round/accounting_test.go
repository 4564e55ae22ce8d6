package round

import (
	"testing"

	"distbasics/internal/graph"
)

// These tests pin the engine's message-accounting semantics, which are easy
// to drift during engine work because MessagesSent is counted at the
// base-graph filter (send phase) and MessagesDelivered at the adversary
// filter (receive phase):
//
//   - a message to a halted neighbor counts as sent but is never delivered;
//   - a message suppressed by the adversary counts as sent, not delivered.

func TestAccountingHaltedReceivers(t *testing.T) {
	// Complete(3): p0 halts after round 1, p1/p2 after round 3. Rounds 2-3
	// have two live senders each sending 2 messages (one to the halted p0,
	// counted as sent only).
	g := graph.Complete(3)
	procs := []Process{
		&echoProc{HaltAfter: 1},
		&echoProc{HaltAfter: 3},
		&echoProc{HaltAfter: 3},
	}
	sys, err := NewSystem(g, procs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	// Sent: round 1: 3*2=6; rounds 2,3: 2*2=4 each => 14.
	// Delivered: round 1: 6; rounds 2,3: only p1<->p2 => 2 each => 10.
	if res.MessagesSent != 14 {
		t.Errorf("MessagesSent = %d, want 14 (sends to a halted neighbor still count)", res.MessagesSent)
	}
	if res.MessagesDelivered != 10 {
		t.Errorf("MessagesDelivered = %d, want 10 (nothing delivered to a halted process)", res.MessagesDelivered)
	}
}

func TestAccountingSuppressingAdversary(t *testing.T) {
	// Ring(4) with an adversary keeping only the arc 0->1: every live
	// process keeps sending both ways, so sent counts are unaffected while
	// delivered counts collapse to one per round.
	g := graph.Ring(4)
	only01 := AdversaryFunc(func(_ int, base *graph.Graph, _ []Process) *graph.Digraph {
		d := graph.NewDigraph(base.N())
		d.AddArc(0, 1)
		return d
	})
	procs := make([]Process, 4)
	for i := range procs {
		procs[i] = &echoProc{HaltAfter: 5}
	}
	sys, err := NewSystem(g, procs, WithAdversary(only01))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 4*2*5 {
		t.Errorf("MessagesSent = %d, want 40 (suppression must not affect the sent count)", res.MessagesSent)
	}
	if res.MessagesDelivered != 5 {
		t.Errorf("MessagesDelivered = %d, want 5 (one surviving arc per round)", res.MessagesDelivered)
	}
	if got := procs[1].(*echoProc).received[0]; got != 5 {
		t.Errorf("p1 received %d messages from p0, want 5", got)
	}
	if got := procs[0].(*echoProc).received[1]; got != 0 {
		t.Errorf("p0 received %d messages from p1, want 0", got)
	}
}
