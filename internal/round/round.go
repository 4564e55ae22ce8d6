// Package round implements the synchronous lock-step computation model of
// §3.1 of the paper (often called the LOCAL model): n reliable processes on
// a connected graph execute a sequence of rounds, each made of a send
// phase, a receive phase, and a local computation phase. The fundamental
// synchrony property — a message sent in round r is received in round r —
// is provided by construction.
//
// A pluggable Adversary decides, every round, which messages are delivered
// (§3.3's message adversaries); see package madv for the TREE and TOUR
// adversaries and others.
//
// # Engine architecture
//
// The engine is built so that a round costs O(mailbox slots) — one slot per
// (process, neighbor) pair, i.e. O(n + m) — with zero allocations on its
// hot path, instead of the original engine's per-round map, goroutine, and
// digraph churn:
//
//   - Pooled dense mailboxes. All outboxes (and all inboxes) live in one
//     flat []Message buffer with a slot per (process, neighbor) pair,
//     allocated once per System and memclr'd between rounds. Processes
//     read and write their slots through the Outbox and Inbox views; an
//     Inbox is only valid for the duration of the Compute call that
//     receives it.
//
//   - Cached adversary digraphs. Under the default None adversary the
//     engine skips graph construction and arc checks entirely. Other
//     adversaries are consulted every round; package madv's adversaries
//     reuse a scratch Digraph (see graph.Digraph.Reset) instead of
//     reallocating one.
//
//   - Quiescent-round skip. A round in which no live process sent anything
//     skips the receive phase and buffer clearing entirely (the adversary
//     is still consulted so that seeded adversaries consume the same
//     random stream regardless of traffic).
//
// There is one execution path: Run walks the processes in index order for
// each phase, so the lock-step automaton of §3.1 is the loop that runs.
// TestEngineMatchesSeedEngine pins Results recorded on the original engine,
// TestEngineEquivalence pins Results of seeded workloads, and
// TestRunAllocatesNothingPerRound pins the hot path's zero allocations.
//
// # Running the experiments
//
// cmd/basicsbench re-derives the paper's claims for experiments E1
// (Cole–Vishkin ring coloring), E2 (TREE-adversary dissemination) and E3
// (TOUR separation) from this engine (go run ./cmd/basicsbench -run
// E1,E2,E3), and bench/ times it (round.ns_per_proc_round).
package round

import (
	"errors"
	"fmt"

	"distbasics/internal/graph"
)

// Message is an opaque round-message payload. Algorithms define their own
// concrete types; the engine never inspects payloads.
type Message any

// Env describes a process's static local environment: its identity, the
// total number of processes, and its neighborhood in the base graph. Per the
// model, a process initially knows only this plus its own input. Neighbors
// is sorted ascending; its order defines the slot layout of Outbox and Inbox.
type Env struct {
	ID        int
	N         int
	Neighbors []int
}

// Process is a synchronous algorithm run at one vertex.
//
// The engine calls Init once, then for each round r = 1, 2, ... calls Send
// then Compute. A process that returns true from Compute has halted: it
// takes no further part in the computation (it sends no messages and
// receives none) and its Output is final.
type Process interface {
	Init(env Env)
	// Send writes this round's outgoing messages into out. Leaving a slot
	// nil means no message to that neighbor.
	Send(r int, out Outbox)
	// Compute consumes this round's inbox.
	Compute(r int, in Inbox) (halt bool)
	Output() any
}

// Adversary produces the directed communication graph G_r of each round: an
// arc u->v means the message sent by u to v in round r (if any) is
// delivered. Per §3.3 the adversary may read process states at the start of
// the round, so it receives the live process slice (it must not mutate it).
// The returned digraph is only read until the end of the round, so an
// adversary may reuse one scratch digraph across calls.
type Adversary interface {
	Graph(r int, base *graph.Graph, procs []Process) *graph.Digraph
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(r int, base *graph.Graph, procs []Process) *graph.Digraph

// Graph implements Adversary.
func (f AdversaryFunc) Graph(r int, base *graph.Graph, procs []Process) *graph.Digraph {
	return f(r, base, procs)
}

// None is the empty adversary adv:∅ of §3.3 — it suppresses no message, so
// G_r is the full symmetric digraph of the base graph, every round. With
// None the system is the most powerful synchronous model SMPn[adv:∅]. The
// engine special-cases None: no digraph is built and no arc is checked.
type None struct{}

// Graph implements Adversary.
func (None) Graph(_ int, base *graph.Graph, _ []Process) *graph.Digraph {
	return graph.DigraphFromGraph(base)
}

// Result reports the outcome of a synchronous execution.
type Result struct {
	// Rounds is the number of rounds executed (the model's time complexity
	// measure, §3.2).
	Rounds int
	// AllHalted reports whether every process halted before MaxRounds.
	AllHalted bool
	// Outputs holds each process's Output() at the end of the run.
	Outputs []any
	// HaltRound[i] is the round at which process i halted, or 0 if it never
	// halted.
	HaltRound []int
	// MessagesSent counts messages passed to the engine over all rounds
	// (before adversary suppression); MessagesDelivered counts those
	// actually delivered. A message addressed to a halted neighbor counts
	// as sent but is never delivered.
	MessagesSent      int
	MessagesDelivered int
}

// Option configures a System.
type Option func(*System)

// WithAdversary installs a message adversary. The default is None (adv:∅).
func WithAdversary(a Adversary) Option {
	return func(s *System) { s.adv = a }
}

// System is a synchronous system SMPn[adv:AD]: a base graph, one Process
// per vertex, and a message adversary.
type System struct {
	base  *graph.Graph
	procs []Process
	adv   Adversary

	// Engine state. The topology is recomputed at the start of every Run
	// (the base graph may change between Runs) but all slices below are
	// allocated once and reused, so repeated Runs — and every round within
	// one — allocate nothing here.
	topo   *topology
	outBuf []Message // flat outgoing slots, indexed by topo layout
	inBuf  []Message // flat incoming slots
	halted []bool
}

// ErrSize is returned when the process slice does not match the graph.
var ErrSize = errors.New("round: len(procs) must equal base.N()")

// NewSystem builds a synchronous system over base with the given processes
// (procs[i] runs at vertex i). The base graph must not be mutated while a
// Run is in progress.
func NewSystem(base *graph.Graph, procs []Process, opts ...Option) (*System, error) {
	if base == nil || len(procs) != base.N() {
		n := 0
		if base != nil {
			n = base.N()
		}
		return nil, fmt.Errorf("%w: %d procs, %d vertices", ErrSize, len(procs), n)
	}
	s := &System{base: base, procs: procs, adv: None{}}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Run executes rounds 1..maxRounds, or fewer if every process halts first.
// Init is called on every process before round 1.
func (s *System) Run(maxRounds int) (*Result, error) {
	if maxRounds < 0 {
		return nil, fmt.Errorf("round: maxRounds must be >= 0, got %d", maxRounds)
	}
	n := s.base.N()
	s.prepare(n)
	for i, p := range s.procs {
		p.Init(Env{ID: i, N: n, Neighbors: s.base.Neighbors(i)})
	}
	res := &Result{
		Outputs:   make([]any, n),
		HaltRound: make([]int, n),
	}
	haltedCount := 0
	_, advIsNone := s.adv.(None)

	for r := 1; r <= maxRounds && haltedCount < n; r++ {
		res.Rounds = r

		// Send phase: live processes fill their outgoing slots, restricted
		// to base-graph neighbors.
		sent := s.send(r)
		res.MessagesSent += sent

		// Adversary chooses G_r; arcs not in G_r are suppressed. Under the
		// built-in None adversary no graph is needed (full delivery);
		// otherwise the adversary runs every round — even quiescent ones —
		// so seeded adversaries consume a traffic-independent random
		// stream.
		var gr *graph.Digraph
		full := advIsNone
		if !advIsNone {
			gr = s.adv.Graph(r, s.base, s.procs)
			full = gr == nil
		}

		// Receive phase: deliver surviving messages into incoming slots.
		// A quiescent round (nothing sent) skips delivery and clearing.
		if sent > 0 {
			res.MessagesDelivered += s.recv(gr, full)
		}

		// Local computation phase.
		haltedCount += s.compute(r, res.HaltRound)

		if sent > 0 {
			clear(s.outBuf)
			clear(s.inBuf)
		}
	}

	res.AllHalted = haltedCount == n
	for i, p := range s.procs {
		res.Outputs[i] = p.Output()
	}
	return res, nil
}

// prepare (re)builds the flattened topology and clears the pooled engine
// buffers, reusing prior allocations when their sizes still fit.
func (s *System) prepare(n int) {
	s.topo = buildTopology(s.base.NeighborsView, n, s.topo)
	total := int(s.topo.off[n])
	if cap(s.outBuf) < total {
		s.outBuf = make([]Message, total)
		s.inBuf = make([]Message, total)
	} else {
		s.outBuf = s.outBuf[:total]
		s.inBuf = s.inBuf[:total]
		clear(s.outBuf)
		clear(s.inBuf)
	}
	if len(s.halted) != n {
		s.halted = make([]bool, n)
	} else {
		clear(s.halted)
	}
}

// send runs the send phase and returns the number of messages sent.
func (s *System) send(r int) int {
	t := s.topo
	sent := 0
	for i, p := range s.procs {
		if s.halted[i] {
			continue
		}
		slots := s.outBuf[t.off[i]:t.off[i+1]]
		p.Send(r, Outbox{slots: slots})
		for _, m := range slots {
			if m != nil {
				sent++
			}
		}
	}
	return sent
}

// recv runs the receive phase: for each live receiver it scans its
// neighbors' reverse slots and copies messages whose arc survived the
// adversary. It returns the number of deliveries.
func (s *System) recv(gr *graph.Digraph, full bool) int {
	t := s.topo
	delivered := 0
	for i := range s.procs {
		if s.halted[i] {
			continue
		}
		for slot := t.off[i]; slot < t.off[i+1]; slot++ {
			src := t.nbrs[slot]
			m := s.outBuf[t.off[src]+t.rev[slot]]
			if m == nil {
				continue
			}
			if full || gr.HasArc(int(src), i) {
				s.inBuf[slot] = m
				delivered++
			}
		}
	}
	return delivered
}

// compute runs the compute phase of round r. A process that halts is
// marked at once, with r recorded in haltRound: no process reads another's
// halted flag during the phase. It returns the number that halted.
func (s *System) compute(r int, haltRound []int) int {
	t := s.topo
	halts := 0
	for i, p := range s.procs {
		if s.halted[i] {
			continue
		}
		from, to := t.off[i], t.off[i+1]
		if p.Compute(r, Inbox{slots: s.inBuf[from:to], nbrs: t.nbrs[from:to]}) {
			s.halted[i] = true
			haltRound[i] = r
			halts++
		}
	}
	return halts
}
