// Package scenario is the deterministic scenario harness shared by every
// execution model in this repository: a seed-deterministic DSL + engine
// that generates adversarial runs (process crashes and recoveries,
// partitions, outbound cuts and heals, message loss, timing and
// clock-rate skew, schedule choices) from a single uint64 seed, drives
// any of the three execution models through small adapter interfaces
// (Model implementations live in internal/scenario/models), checks an
// oracle (linearizability via internal/check, agreement/validity
// predicates, golden equivalence between legacy and rebuilt engines),
// and on failure automatically
// shrinks the scenario — delta debugging over operations, fault events,
// and schedule prefixes — to a minimal reproducer printed as a
// copy-pasteable seed + trace literal.
//
// The paper's point is that the same basic problems recur across the
// synchronous, asynchronous, and shared-memory models; this package is
// the corresponding statement about testing: one scenario vocabulary,
// one seed discipline, one campaign loop (Campaign: generated seeds,
// then optionally coverage-guided mutants of them), one shrinker, and
// one failure-reporting channel (Reportf), reused by every model
// instead of per-package one-offs. Every run goes through Run, which
// turns a model's panic into a failed Result: a model must tolerate any
// scenario Decode accepts and any mutant, and one that does not is
// reported like any other oracle failure.
//
// # Determinism contract
//
// Everything is a pure function of the Scenario value. Model.Generate
// must derive the entire scenario from the seed (via Rand), and
// Model.Run must be deterministic given the scenario: running the same
// scenario twice yields byte-identical Results (asserted per adapter by
// the determinism tests in models). This is what makes a seed a complete
// reproducer and what makes shrinking sound: any edited scenario still
// replays exactly.
//
// # Reproducing a failure
//
// Failures printed through Reportf carry the exact replay invocation:
//
//	go run ./cmd/basicsfuzz -model=abd -seed=1234 -v
//
// which regenerates the scenario from the seed and re-runs it verbosely.
// Shrunk reproducers are no longer derivable from the seed alone; they
// are written as encoded scenario files (Encode/Decode) replayable with
//
//	go run ./cmd/basicsfuzz -replay=path/to/file.scenario -v
//
// and pinned in regression tests as Go literals (GoLiteral).
package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind names a client operation in a scenario. The interpretation is
// per-model (a write on a register, a put on a KV store, a proposal to a
// consensus instance, a whole process body for program-equivalence
// models), but the vocabulary is shared so the shrinker and the encoder
// work on every model.
type OpKind uint8

// Operation kinds. Enums start at 1 so the zero Op is invalid.
const (
	OpWrite OpKind = iota + 1
	OpRead
	OpPut
	OpGet
	OpPropose
	OpBody
)

var opKindNames = map[OpKind]string{
	OpWrite: "write", OpRead: "read", OpPut: "put",
	OpGet: "get", OpPropose: "propose", OpBody: "body",
}

func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one client operation of a scenario.
type Op struct {
	// Proc is the issuing process.
	Proc int
	// Kind is the operation kind.
	Kind OpKind
	// Key addresses a sub-object (register index, map key, body shape).
	Key int
	// Val is the operation value (written value, proposal, repetitions).
	Val int
}

// FaultKind names a fault event.
type FaultKind uint8

// Fault kinds. Enums start at 1 so the zero Fault is invalid.
const (
	// FaultCrash crashes Proc at From; if Until > From the process
	// recovers at Until. For step-scheduled models (shared memory), From
	// is a decision-step index rather than a virtual time.
	FaultCrash FaultKind = iota + 1
	// FaultPartition splits the network during [From, Until): Group is
	// one island, everyone else the other.
	FaultPartition
	// FaultDrop drops each message with probability Pct/100 during
	// [From, Until), drawing from a sub-stream seeded with Sub.
	FaultDrop
	// FaultIsolate cuts the processes in Group off the network during
	// [From, Until).
	FaultIsolate
	// FaultSkew adds Pct extra delay units to every message sent by
	// even-numbered processes (asymmetric link speeds).
	FaultSkew
	// FaultSendBudget crashes Proc after its Pct-th message send
	// (amp.Sim.CrashAfterSends — the "crash mid-broadcast" probe).
	FaultSendBudget
	// FaultSnapCrash makes Proc compact its journal at From with a
	// SIGKILL landing after snapshot-install protocol step Pct
	// (rsm.SnapStep: 1=tmp written, 2=renamed, 3=fresh segment), then
	// restart from whatever the journal recovers at Until. Journaled
	// models only; others ignore it.
	FaultSnapCrash
	// FaultClock runs Proc's clock (its Now() and its timers) at
	// (100+Pct)% of global time during [From, Until) (amp.Sim.ClockRate:
	// the rate skew a lease margin must cover).
	FaultClock
	// FaultCut drops every message Proc sends to a process in Group
	// during [From, Until); the reverse direction is untouched (an
	// asymmetric, outbound-only cut).
	FaultCut
)

var faultKindNames = map[FaultKind]string{
	FaultCrash: "crash", FaultPartition: "partition", FaultDrop: "drop",
	FaultIsolate: "isolate", FaultSkew: "skew", FaultSendBudget: "sendbudget",
	FaultSnapCrash: "snapcrash", FaultClock: "clock", FaultCut: "cut",
}

// faultKindConsts are the Go constant names, for GoLiteral.
var faultKindConsts = map[FaultKind]string{
	FaultCrash: "FaultCrash", FaultPartition: "FaultPartition", FaultDrop: "FaultDrop",
	FaultIsolate: "FaultIsolate", FaultSkew: "FaultSkew", FaultSendBudget: "FaultSendBudget",
	FaultSnapCrash: "FaultSnapCrash", FaultClock: "FaultClock", FaultCut: "FaultCut",
}

// opKindConsts are the Go constant names, for GoLiteral.
var opKindConsts = map[OpKind]string{
	OpWrite: "OpWrite", OpRead: "OpRead", OpPut: "OpPut",
	OpGet: "OpGet", OpPropose: "OpPropose", OpBody: "OpBody",
}

func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("faultkind(%d)", uint8(k))
}

// Fault is one fault event of a scenario.
type Fault struct {
	Kind  FaultKind
	Proc  int
	From  int64
	Until int64
	// Pct is a percentage (drop probability, clock rate offset) or
	// magnitude (skew units).
	Pct int
	// Sub seeds the fault's private random stream (drop decisions).
	Sub int64
	// Group lists processes (partition island, isolation set, cut
	// destinations).
	Group []int
}

// Scenario is one fully deterministic adversarial run description. The
// three lists — Ops, Faults, Sched — are what the shrinker edits; all
// residual randomness (delays, think times, policy draws) is derived
// from Seed and is unaffected by list edits.
type Scenario struct {
	// Model names the adapter that runs this scenario.
	Model string
	// Seed is the master seed the scenario was generated from; it also
	// drives all residual randomness during Run.
	Seed uint64
	// Procs is the process count.
	Procs int
	// Ops are the client operations.
	Ops []Op
	// Faults are the fault events.
	Faults []Fault
	// Sched is a model-specific stream of explicit schedule choices
	// (per-round adversary graph codes, scheduler decision prefixes).
	Sched []int64
}

// Clone returns a deep copy of sc (Group slices included), so shrinking
// candidates never alias the original.
func (sc *Scenario) Clone() *Scenario {
	c := *sc
	c.Ops = append([]Op(nil), sc.Ops...)
	c.Faults = append([]Fault(nil), sc.Faults...)
	for i := range c.Faults {
		c.Faults[i].Group = append([]int(nil), c.Faults[i].Group...)
	}
	c.Sched = append([]int64(nil), sc.Sched...)
	return &c
}

// OpsFor returns sc's operations issued by proc, in list order.
func (sc *Scenario) OpsFor(proc int) []Op {
	var out []Op
	for _, op := range sc.Ops {
		if op.Proc == proc {
			out = append(out, op)
		}
	}
	return out
}

// Encode renders sc in the harness's line-based textual format,
// round-tripped exactly by Decode. The format is what basicsfuzz writes
// to testdata as a found-crasher reproducer.
func (sc *Scenario) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario v1\n")
	fmt.Fprintf(&b, "model=%s seed=%d procs=%d\n", sc.Model, sc.Seed, sc.Procs)
	for _, op := range sc.Ops {
		fmt.Fprintf(&b, "op proc=%d kind=%s key=%d val=%d\n", op.Proc, op.Kind, op.Key, op.Val)
	}
	for _, f := range sc.Faults {
		fmt.Fprintf(&b, "fault kind=%s proc=%d from=%d until=%d pct=%d sub=%d group=%s\n",
			f.Kind, f.Proc, f.From, f.Until, f.Pct, f.Sub, joinInts(f.Group))
	}
	if len(sc.Sched) > 0 {
		b.WriteString("sched")
		for _, s := range sc.Sched {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteString("\n")
	}
	return []byte(b.String())
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// Decode parses the Encode format.
func Decode(data []byte) (*Scenario, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "scenario v1" {
		return nil, fmt.Errorf("scenario: not a v1 scenario file")
	}
	sc := &Scenario{}
	if _, err := fmt.Sscanf(lines[1], "model=%s seed=%d procs=%d", &sc.Model, &sc.Seed, &sc.Procs); err != nil {
		return nil, fmt.Errorf("scenario: bad header %q: %v", lines[1], err)
	}
	if sc.Procs < 0 {
		return nil, fmt.Errorf("scenario: bad header %q: negative procs", lines[1])
	}
	kindByName := func(m map[OpKind]string, s string) (OpKind, bool) {
		for k, n := range m {
			if n == s {
				return k, true
			}
		}
		return 0, false
	}
	for _, line := range lines[2:] {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "op "):
			var op Op
			var kind string
			if _, err := fmt.Sscanf(line, "op proc=%d kind=%s key=%d val=%d", &op.Proc, &kind, &op.Key, &op.Val); err != nil {
				return nil, fmt.Errorf("scenario: bad op line %q: %v", line, err)
			}
			k, ok := kindByName(opKindNames, kind)
			if !ok {
				return nil, fmt.Errorf("scenario: unknown op kind %q", kind)
			}
			op.Kind = k
			sc.Ops = append(sc.Ops, op)
		case strings.HasPrefix(line, "fault "):
			var f Fault
			var kind, group string
			if _, err := fmt.Sscanf(line, "fault kind=%s proc=%d from=%d until=%d pct=%d sub=%d group=%s",
				&kind, &f.Proc, &f.From, &f.Until, &f.Pct, &f.Sub, &group); err != nil {
				return nil, fmt.Errorf("scenario: bad fault line %q: %v", line, err)
			}
			found := false
			for k, n := range faultKindNames {
				if n == kind {
					f.Kind, found = k, true
				}
			}
			if !found {
				return nil, fmt.Errorf("scenario: unknown fault kind %q", kind)
			}
			if group != "-" {
				for _, part := range strings.Split(group, ",") {
					var v int
					if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
						return nil, fmt.Errorf("scenario: bad fault group %q: %v", group, err)
					}
					f.Group = append(f.Group, v)
				}
			}
			// Models index processes by these; no generator emits one
			// outside the system.
			for _, p := range append([]int{f.Proc}, f.Group...) {
				if p < 0 || p >= sc.Procs {
					return nil, fmt.Errorf("scenario: bad fault line %q: process %d outside [0,%d)", line, p, sc.Procs)
				}
			}
			sc.Faults = append(sc.Faults, f)
		case strings.HasPrefix(line, "sched"):
			for _, part := range strings.Fields(line)[1:] {
				var v int64
				if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
					return nil, fmt.Errorf("scenario: bad sched entry %q: %v", part, err)
				}
				sc.Sched = append(sc.Sched, v)
			}
		default:
			return nil, fmt.Errorf("scenario: unrecognized line %q", line)
		}
	}
	return sc, nil
}

// GoLiteral renders sc as a Go composite literal for pinning shrunk
// reproducers in regression tests.
func (sc *Scenario) GoLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "&scenario.Scenario{\n\tModel: %q, Seed: %d, Procs: %d,\n", sc.Model, sc.Seed, sc.Procs)
	if len(sc.Ops) > 0 {
		b.WriteString("\tOps: []scenario.Op{\n")
		for _, op := range sc.Ops {
			fmt.Fprintf(&b, "\t\t{Proc: %d, Kind: scenario.%s, Key: %d, Val: %d},\n",
				op.Proc, opKindConsts[op.Kind], op.Key, op.Val)
		}
		b.WriteString("\t},\n")
	}
	if len(sc.Faults) > 0 {
		b.WriteString("\tFaults: []scenario.Fault{\n")
		for _, f := range sc.Faults {
			fmt.Fprintf(&b, "\t\t{Kind: scenario.%s, Proc: %d, From: %d, Until: %d, Pct: %d, Sub: %d, Group: %s},\n",
				faultKindConsts[f.Kind], f.Proc, f.From, f.Until, f.Pct, f.Sub, goIntSlice(f.Group))
		}
		b.WriteString("\t},\n")
	}
	if len(sc.Sched) > 0 {
		fmt.Fprintf(&b, "\tSched: %#v,\n", sc.Sched)
	}
	b.WriteString("}")
	return b.String()
}

func goIntSlice(xs []int) string {
	if xs == nil {
		return "nil"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[]int{" + strings.Join(parts, ", ") + "}"
}

// Summary returns a one-line description of sc's size, for progress and
// failure messages.
func (sc *Scenario) Summary() string {
	return fmt.Sprintf("%s seed=%d procs=%d ops=%d faults=%d sched=%d",
		sc.Model, sc.Seed, sc.Procs, len(sc.Ops), len(sc.Faults), len(sc.Sched))
}

// SortGroup normalizes a fault group in place (stable encode output).
func SortGroup(g []int) []int {
	sort.Ints(g)
	return g
}
