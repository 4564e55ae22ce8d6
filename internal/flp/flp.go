// Package flp makes the FLP impossibility result (§2.4, §5.1, [23])
// executable: it exhaustively explores every schedule of a deterministic
// message-passing protocol under at most one crash, classifies initial
// configurations by valence (0-valent, 1-valent, bivalent), and exhibits
// the dilemma concretely — for each candidate consensus protocol it
// finds either an execution that never decides or one that violates
// agreement.
//
// The model is FLP's: a configuration is the vector of process states
// plus the multiset of in-flight messages; a step is the delivery of one
// message to a live process (which may send new messages and/or decide);
// the adversary additionally may crash up to MaxCrashes processes, after
// which their pending messages are discarded. An execution is complete
// when no message addressed to a live process remains. Determinism of
// the protocol is what makes the reachable configuration space finite
// for bounded protocols, and exhaustive search meaningful.
//
// # Architecture
//
// The explorer identifies configurations by a canonical binary
// encoding, not by rendering them with fmt: process states and message
// bodies are interned to small integer ids (comparable values intern
// directly; uncomparable ones fall back to a rendered identity), each
// in-flight message packs to one uint64, and a configuration key is the
// id vector plus the crashed bitmask plus the sorted message words.
// Keys live in one hashed seen-table; on the fast path nothing is
// formatted or re-sorted as strings.
//
// The search itself never clones a configuration. One mutable
// configuration is threaded through the depth-first recursion
// copy-on-write style: delivering a message swaps it out of the buffer,
// appends its sends, recurses, and undoes both; crashing a process
// snapshots the buffer once into a pooled scratch slice. Decisions are
// cached per interned state id, so Protocol.Decision runs once per
// distinct state rather than once per process per configuration.
//
// # The search
//
// There is one search (dpor.go): a sleep-set depth-first search over a
// seen-table that maps each configuration to the sleep masks it was
// explored with. Full enumeration is that search with nothing ever put
// to sleep — every mask is empty and the table degenerates into a
// seen-set; Options.DPOR turns the sleeping on.
//
// The reduction rests on commutation. Deliveries to DIFFERENT processes
// commute: each changes only its receiver's state, and their sends union
// into the same in-flight multiset either way. Crashing p commutes with
// every delivery to q != p and with crashing q (a message sent to an
// already-crashed process is inert — never deliverable, never consulted
// — so configurations that differ only by inert messages are
// observationally equivalent, which is all the reported properties see:
// Decided, valences, and both violation classes are preserved by
// extending any execution to completion, and equivalent complete
// executions share their final configuration). Dependent pairs are
// exactly: two deliveries to the same process, and a delivery to p
// versus crash(p).
//
// The search therefore carries two sleep masks per recursion, one of
// receivers and one of crash targets. Branches are enumerated grouped by
// receiver; under DPOR, after a group with at least one explored
// delivery its receiver goes to sleep for the later groups and the crash
// branches, and each explored crash goes to sleep for the later crash
// branches. Descending a branch wakes the dependent entries: a delivery
// to r wakes crash(r) and — because causally-new messages were not
// covered by the sleeping receiver's earlier-sibling subtree — every
// receiver the delivery sends to. Unlike the shm explorer there is no
// per-execution step budget, so no crash/budget interaction arises;
// MaxConfigs truncation makes any search a lower bound, DPOR or not.
//
// Because the search caches configurations, sleep sets alone are not
// enough: a configuration first reached with sleep S may be reached
// again with sleep S' not containing S, and the branches in S \ S' were
// never explored. A revisit therefore prunes only if the stored masks
// are a subset of the current ones, and otherwise stores the
// intersection BEFORE re-exploring (so cycles terminate: the stored
// masks strictly shrink). Configs counts first visits only; under DPOR
// it is smaller than the full search's count (wait-majority n=4, one
// crash: 39425 against 118357) while Decided sets, valences, and
// violation presence are preserved.
//
// The search runs on the calling goroutine, so Protocol needs no
// synchronization, and a MaxConfigs truncation cuts at the same
// configuration on every run.
//
// The seed explorer (Sprintf keys, full clones) is deleted. The Decided
// sets, valences, violation classifications and Configs counts it agreed
// on are frozen in the flp model's digests
// (internal/scenario/models/testdata/digests.txt) and in equiv_test.go's
// table; the full search in turn is the reference the reduction is
// fenced against (dpor_test.go).
package flp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
)

// State is an opaque per-process protocol state. States (and message
// bodies) are interned in Go maps for memoization: comparable values
// intern directly; values of uncomparable dynamic type (slices, maps)
// fall back to a rendered identity, like the seed engine's string keys.
// Comparable-typed values whose fields hold uncomparable dynamic values
// are not supported.
type State any

// Outgoing is a message produced by a protocol step.
type Outgoing struct {
	To   int
	Body any
}

// Protocol is a deterministic asynchronous message-passing protocol for
// binary consensus (decisions are 0 or 1). The explorer owns delivery
// order and crashes; the protocol owns everything else.
type Protocol interface {
	// N returns the number of processes.
	N() int
	// Initial returns process pid's initial state and its initial sends
	// (the messages it emits on wake-up, before receiving anything).
	Initial(pid int, input int) (State, []Outgoing)
	// Deliver hands body (sent by from) to pid in state s.
	Deliver(pid int, s State, from int, body any) (State, []Outgoing)
	// Decision reports whether s has irrevocably decided, and what.
	Decision(s State) (int, bool)
}

// asleep is the placeholder state of a process whose wake message has
// not yet been delivered. It holds no protocol state and has decided
// nothing.
type asleep struct{ Input int }

// Valence classifies a configuration by the set of decision values
// reachable from it.
type Valence int

// Valence values. The zero value Unknown is reported only for
// configurations from which no execution decides at all.
const (
	Unknown Valence = iota
	ZeroValent
	OneValent
	Bivalent
)

// String implements fmt.Stringer.
func (v Valence) String() string {
	switch v {
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	default:
		return "undecided"
	}
}

// Report summarizes an exhaustive exploration.
type Report struct {
	// Decided[v] is true if some execution reaches a configuration where
	// a correct process decides v.
	Decided map[int]bool
	// AgreementViolation is a short structured note when two correct
	// processes decide differently in the same execution ("" if none).
	AgreementViolation string
	// TerminationViolation is set when some complete execution (with at
	// most MaxCrashes crashes) ends with a correct, undecided process.
	TerminationViolation string
	// Configs counts distinct configurations visited, capped at
	// MaxConfigs.
	Configs int
	// Truncated reports that exploration hit MaxConfigs and results are
	// a lower bound.
	Truncated bool
}

// agreementMsg formats the structured agreement-violation note shared
// by both engines: it names the two disagreeing processes and sketches
// the configuration instead of embedding its full rendering.
func agreementMsg(pid1, v1, pid2, v2, crashes, inflight int) string {
	return fmt.Sprintf("agreement violation: p%d decided %d while p%d decided %d (crashes=%d, %d messages in flight)",
		pid1+1, v1, pid2+1, v2, crashes, inflight)
}

// terminationMsg formats the structured termination-violation note.
func terminationMsg(crashes, pid int) string {
	return fmt.Sprintf("termination violation: complete execution (crashes=%d) leaves p%d undecided", crashes, pid+1)
}

// Valence derives the initial configuration's valence from the report.
func (r Report) Valence() Valence {
	switch {
	case r.Decided[0] && r.Decided[1]:
		return Bivalent
	case r.Decided[0]:
		return ZeroValent
	case r.Decided[1]:
		return OneValent
	default:
		return Unknown
	}
}

// Options bound the exploration.
type Options struct {
	// MaxCrashes is the adversary's crash budget (FLP uses 1).
	MaxCrashes int
	// MaxConfigs caps visited configurations (0 = DefaultMaxConfigs).
	MaxConfigs int
	// Deprecated: ignored; the search is serial.
	Workers int
	// DPOR enables dynamic partial-order reduction (see the package
	// comment): deliveries to different processes commute, so the search
	// prunes reorderings of independent deliveries and crashes with
	// per-node sleep masks. Decided sets, valences, and the presence of
	// agreement and termination violations are preserved exactly; Configs
	// counts only the configurations the pruned search visits (fewer than
	// the full search), and violation message details may differ.
	DPOR bool
}

// DefaultMaxConfigs bounds exploration when Options.MaxConfigs is 0.
const DefaultMaxConfigs = 2_000_000

// MaxProcs bounds the number of processes (crash sets are bitmasks).
const MaxProcs = 64

// Explore exhaustively explores every delivery/crash schedule of proto
// from the given inputs and reports reachable decisions, agreement
// violations, and termination violations.
func Explore(proto Protocol, inputs []int, opts Options) Report {
	n := proto.N()
	if len(inputs) != n {
		panic(fmt.Sprintf("flp: %d inputs for %d processes", len(inputs), n))
	}
	if n > MaxProcs {
		panic(fmt.Sprintf("flp: %d processes, max %d", n, MaxProcs))
	}
	e := newExplorer(proto, inputs, opts)
	e.visit(sleepMask{})
	e.rep.Configs = e.seen.configs()
	return *e.rep
}

// ---------------------------------------------------------------------------
// The rebuilt engine.
// ---------------------------------------------------------------------------

// emsg is an in-flight message with its body interned: word packs
// (from, to, wake, bodyID) into one sortable uint64 for config keys.
type emsg struct {
	from, to int32
	wake     bool
	body     any
	word     uint64
}

func packMsg(from, to int, wake bool, bodyID uint32) uint64 {
	w := uint64(from)<<45 | uint64(to)<<33 | uint64(bodyID)
	if wake {
		w |= 1 << 32
	}
	return w
}

// explorer is the mutable exploration context: one configuration,
// mutated and undone copy-on-write style around each recursive branch.
type explorer struct {
	proto      Protocol
	n          int
	maxCrashes int

	states      []State
	stateID     []uint32
	crashedMask uint64
	asleepMask  uint64
	crashes     int
	buf         []emsg

	stateIDs map[any]uint32
	stateVal []State
	decKnown []uint8 // per state id: 0 uncached, 1 undecided, 2 decided
	decVal   []int   // per state id: the decision when decKnown == 2
	bodyIDs  map[any]uint32
	skey     internKeyer
	bkey     internKeyer

	dpor    bool // Options.DPOR: explored branches go to sleep for their later siblings
	seen    *seenTable
	keyBuf  []byte
	msgKeys []uint64
	scratch [][]emsg // buffer snapshots for crash branches

	rep *Report
}

// rendered is the interning identity of an uncomparable value.
type rendered string

// internKeyer derives a map-safe interning key: the value itself when
// its dynamic type is comparable, a rendered identity otherwise. A
// one-entry type cache covers the common case of a single concrete
// type.
type internKeyer struct {
	lastT  reflect.Type
	lastOK bool
}

func (k *internKeyer) key(v any) any {
	if v == nil {
		return nil
	}
	t := reflect.TypeOf(v)
	if t != k.lastT {
		k.lastT, k.lastOK = t, t.Comparable()
	}
	if k.lastOK {
		return v
	}
	return rendered(fmt.Sprintf("%T|%#v", v, v))
}

func newExplorer(proto Protocol, inputs []int, opts Options) *explorer {
	n := proto.N()
	e := &explorer{
		proto:      proto,
		n:          n,
		maxCrashes: opts.MaxCrashes,
		states:     make([]State, n),
		stateID:    make([]uint32, n),
		stateIDs:   make(map[any]uint32),
		bodyIDs:    make(map[any]uint32),
		dpor:       opts.DPOR,
		seen:       newSeenTable(opts),
		rep:        &Report{Decided: make(map[int]bool)},
	}
	for i := 0; i < n; i++ {
		e.setState(i, asleep{Input: inputs[i]})
		e.asleepMask |= 1 << uint(i)
		e.buf = append(e.buf, e.newMsg(i, i, nil, true))
	}
	return e
}

// internState returns the id of s, assigning the next one on first
// sight.
func (e *explorer) internState(s State) uint32 {
	ks := e.skey.key(s)
	if id, ok := e.stateIDs[ks]; ok {
		return id
	}
	id := uint32(len(e.stateVal))
	e.stateIDs[ks] = id
	e.stateVal = append(e.stateVal, s)
	e.decKnown = append(e.decKnown, 0)
	e.decVal = append(e.decVal, 0)
	return id
}

// internBody returns the id of a message body, mirroring internState.
func (e *explorer) internBody(body any) uint32 {
	kb := e.bkey.key(body)
	if id, ok := e.bodyIDs[kb]; ok {
		return id
	}
	id := uint32(len(e.bodyIDs))
	e.bodyIDs[kb] = id
	return id
}

func (e *explorer) setState(pid int, s State) {
	e.states[pid] = s
	e.stateID[pid] = e.internState(s)
}

// decision returns the cached decision of state id.
func (e *explorer) decision(id uint32) (int, bool) {
	if k := e.decKnown[id]; k != 0 {
		return e.decVal[id], k == 2
	}
	v, ok := e.proto.Decision(e.stateVal[id])
	if ok {
		e.decKnown[id], e.decVal[id] = 2, v
	} else {
		e.decKnown[id] = 1
	}
	return v, ok
}

func (e *explorer) newMsg(from, to int, body any, wake bool) emsg {
	id := e.internBody(body)
	return emsg{from: int32(from), to: int32(to), wake: wake, body: body, word: packMsg(from, to, wake, id)}
}

// configKey appends the canonical binary encoding of the current
// configuration into the reused key buffer: interned state ids, the
// crashed bitmask, and the sorted packed message words.
func (e *explorer) configKey() []byte {
	b := e.keyBuf[:0]
	for pid := 0; pid < e.n; pid++ {
		b = binary.AppendUvarint(b, uint64(e.stateID[pid]))
	}
	b = binary.AppendUvarint(b, e.crashedMask)
	keys := e.msgKeys[:0]
	for i := range e.buf {
		keys = append(keys, e.buf[i].word)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = binary.AppendUvarint(b, k)
	}
	e.keyBuf, e.msgKeys = b, keys
	return b
}

// InitialValences explores every binary input vector of proto and
// returns each vector's valence — how tests exhibit FLP Lemma 2's
// "bivalent initial configuration exists".
func InitialValences(proto Protocol, opts Options) map[string]Valence {
	n := proto.N()
	out := make(map[string]Valence)
	for bits := 0; bits < 1<<uint(n); bits++ {
		inputs := make([]int, n)
		label := make([]byte, n)
		for i := 0; i < n; i++ {
			inputs[i] = (bits >> uint(i)) & 1
			label[i] = byte('0' + inputs[i])
		}
		rep := Explore(proto, inputs, opts)
		out[string(label)] = rep.Valence()
	}
	return out
}
