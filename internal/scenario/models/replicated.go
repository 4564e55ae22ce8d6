package models

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// This file holds, once, what the models of a replicated or
// history-checked system each used to rebuild: the linearizability
// verdict (abd, abdmulti, rsm, transport, universal), the applied-order
// oracle (rsm, jobq, transport), the replicas' journals and the
// snapshot-crash fault (rsm, jobq on amp.Sim; transport on Loopback) and
// the put-then-read-at-apply client chains and their liveness oracle
// (rsm, transport), and the bounded-work oracle (rsm, jobq, transport). The models
// keep their own trace formats and failure messages: a Result is a
// reproducer, byte for byte.

// traceHistory counts h's completed and pending operations into res and
// traces one line per operation.
func traceHistory(res *scenario.Result, h check.History) {
	for _, op := range h {
		if op.Return == check.Pending {
			res.Pending++
		} else {
			res.Completed++
		}
		res.Tracef("p%d %v @[%d,%d] -> %v", op.Proc, op.Arg, op.Call, op.Return, op.Out)
	}
}

// linearize is the verdict every history-checked model ends on: h must
// be linearizable against spec, and the witness order the checker emits
// must replay through the shared validator (which catches a checker
// that fabricates orders). violation and ok word the model's own
// failure reason and closing trace line.
func linearize(res *scenario.Result, spec check.Spec, h check.History, violation, ok func(lin check.Result) string) *scenario.Result {
	if len(h) == 0 {
		res.Tracef("empty history")
		return res
	}
	lin, err := check.Linearizable(spec, h)
	if err != nil {
		res.Failf("checker error: %v", err)
		return res
	}
	if !lin.OK {
		res.Failf("linearizability violation: %s", violation(lin))
		return res
	}
	if err := check.ValidateOrder(spec, h, lin.Order); err != nil {
		res.Failf("witness invalid: %v", err)
		return res
	}
	res.Tracef("linearizable%s", ok(lin))
	return res
}

// linearizeKeyed is linearize for the per-key put/read histories of the
// rsm-backed models (rsm, transport).
func linearizeKeyed(res *scenario.Result, h check.History) *scenario.Result {
	sum := func(lin check.Result) string { return fmt.Sprintf("%d ops over %d partitions", len(h), lin.Partitions) }
	return linearize(res, check.RegisterArraySpec{}, h, sum, func(lin check.Result) string { return ": " + sum(lin) })
}

// divergence is the applied-order oracle: replicas may lag, never
// diverge. a and b are two replicas' applied ID sequences starting at
// absolute apply positions aBase and bBase (non-zero after a reboot from
// a snapshot, which retains only the suffix past the snapshot's
// coverage); it returns the first absolute position both hold where
// they disagree, or -1.
func divergence(a, b []rbcast.MsgID, aBase, bBase int) int {
	for p := max(aBase, bBase); p < min(aBase+len(a), bBase+len(b)); p++ {
		if a[p-aBase] != b[p-bBase] {
			return p
		}
	}
	return -1
}

// putPerOp is boundWork's bound for the put models (rsm, transport):
// a put is one command, and seeds 1–120 apply at most 1.0 per put.
const putPerOp = 2

// boundWork is the bounded-work oracle: a run fails when its most
// advanced replica (applies(p), p < n) applied more than perOp commands
// per submitted op, so a runaway — a rejoin loop, a retry storm — fails
// its seed instead of passing slowly.
func boundWork(res *scenario.Result, perOp, ops, n int, applies func(p int) int) {
	most := 0
	for p := 0; p < n; p++ {
		most = max(most, applies(p))
	}
	if most > perOp*max(ops, 1) {
		res.Failf("unbounded work: a replica applied %d commands for %d submitted ops (bound %d per op)", most, ops, perOp)
	}
}

// stranded is the liveness oracle of the put models (rsm, transport):
// every put has returned once the faults heal. A crash of a client
// (below clients), whose unordered puts are its caller's to retry, or
// one that never heals exempts the run; generated scenarios have none.
func stranded(res *scenario.Result, sc *scenario.Scenario, clients, done, total int) bool {
	for _, f := range sc.Faults {
		crash := f.Kind == scenario.FaultCrash || f.Kind == scenario.FaultSnapCrash
		if crash && (f.Proc < clients || f.Until <= f.From) {
			return false
		}
	}
	if done < total {
		res.Failf("stranded: %d of %d puts returned", done, total)
	}
	return done < total
}

// genSnapCrash draws a snapshot-crash fault: at from, replica proc
// compacts its journal with a SIGKILL landing after install step Pct
// (0 = after a clean install), stays down at least minDown ticks, then
// reboots from whatever the journal recovers.
func genSnapCrash(rng *scenario.Rand, from int64, proc int, minDown, spread int64) scenario.Fault {
	return scenario.Fault{
		Kind: scenario.FaultSnapCrash, Proc: proc,
		From: from, Until: from + minDown + rng.Int63n(spread),
		Pct: rng.Intn(4),
	}
}

// journals is one run's replica journals: the daemons' FileJournal, one
// per replica, in one temporary directory. A crash closes the victim's
// journal and a reboot opens it again, as node.StartTCP does after a
// kill -9. A journal the disk refuses to open fails the run.
type journals struct {
	res *scenario.Result
	dir string
	inc [][]*rsm.FileJournal // per replica, every incarnation's journal, the current one last
}

// openJournals creates the run's directory and n empty journals in it,
// or fails res and returns false; the caller defers close either way.
func openJournals(res *scenario.Result, n int) (*journals, bool) {
	js := &journals{res: res, inc: make([][]*rsm.FileJournal, n)}
	var err error
	if js.dir, err = os.MkdirTemp("", "basics-journals-"); err != nil {
		res.Failf("journal directory: %v", err)
		return js, false
	}
	for p := range js.inc {
		js.reopen(p)
	}
	return js, !res.Failed
}

// cur is replica p's current journal.
func (js *journals) cur(p int) *rsm.FileJournal { return js.inc[p][len(js.inc[p])-1] }

// crash closes replica p's journal: its process is dead.
func (js *journals) crash(p int) { js.cur(p).Close() }

// reopen opens replica p's journal and returns what it recovers, or nil
// (the run failed) when the disk refuses.
func (js *journals) reopen(p int) *rsm.Recovery {
	j, rec, err := rsm.OpenFileJournal(filepath.Join(js.dir, fmt.Sprintf("r%d.journal", p)))
	if err != nil {
		js.res.Failf("open replica %d's journal: %v", p, err)
		return nil
	}
	js.inc[p] = append(js.inc[p], j)
	return rec
}

// close fails the run if any journal of it lost an append (a record
// the replica acted on that its recovery would not see), then closes
// every journal and removes the directory. Deferred, it runs on a model
// panic too.
func (js *journals) close() {
	for p, inc := range js.inc {
		for _, j := range inc {
			if st := j.Stats(); st.WriteErrs > 0 {
				js.res.Failf("replica %d's journal lost %d appends", p, st.WriteErrs)
			}
			j.Close()
		}
	}
	os.RemoveAll(js.dir) // "" when MkdirTemp failed: a no-op
}

// snapCrash is the first half of a snapshot-crash fault, run inside the
// victim's event loop: compact nd's journal j with a SIGKILL landing
// after install step `step` (SnapStepNone = a clean install). The
// caller then crashes the replica and later reboots a NEW incarnation
// from whatever the reopened journal recovers — the old snapshot or the
// new one, never a hybrid. Any other Compact error (a snapshot that
// does not encode) fails the run: the fault would otherwise never
// install.
func snapCrash(res *scenario.Result, p int, step rsm.SnapStep, j *rsm.FileJournal, nd *rsm.Node) {
	j.SetInstallCrash(step)
	err := nd.Compact()
	j.SetInstallCrash(rsm.SnapStepNone)
	res.Tracef("snapcrash p%d step=%d err=%v", p, step, err)
	if err != nil && !errors.Is(err, rsm.ErrInstallInterrupted) {
		res.Failf("snapshot-crash compaction at p%d failed: %v", p, err)
	}
}

// recoveredBase is how many applies rec's snapshot covers: the absolute
// apply position a replica rebooted from rec resumes at.
func recoveredBase(rec *rsm.Recovery) int {
	if rec.Snap == nil {
		return 0
	}
	return rec.Snap.Applies
}

// simSnapCrashes schedules sc's snapshot-crash faults on sim: at From
// the victim (node(p), journal js.cur(p)) runs snapCrash, is killed,
// and its journal closes; at Until the journal is reopened, applied[p] —
// the sequence the victim's construction-time apply hook records — is
// rewound to the recovered snapshot's coverage (recovery replays the
// suffix through the same hook) and reboot builds and installs the new
// incarnation from rec. The models' oracles are unchanged by the
// fault: the rebooted replica must slot back into the same total order.
func simSnapCrashes(sim *amp.Sim, sc *scenario.Scenario, res *scenario.Result, js *journals,
	applied [][]rbcast.MsgID, node func(p int) *rsm.Node, reboot func(p int, rec *rsm.Recovery, base int)) {
	for _, f := range sc.Faults {
		if f.Kind != scenario.FaultSnapCrash || f.Proc < 0 || f.Proc >= len(js.inc) {
			continue
		}
		p, step := f.Proc, rsm.SnapStep(f.Pct%4)
		sim.Schedule(amp.Time(f.From), func() {
			if sim.Crashed(p) {
				return
			}
			snapCrash(res, p, step, js.cur(p), node(p))
			sim.KillAt(p, sim.Now())
			// p handles what is already due this tick before the kill lands.
			sim.Schedule(sim.Now(), func() { js.crash(p) })
		})
		sim.Schedule(amp.Time(f.Until), func() {
			js.crash(p) // a no-op unless From found p already crashed
			rec := js.reopen(p)
			if rec == nil {
				return // the run failed; p stays down
			}
			base := min(recoveredBase(rec), len(applied[p]))
			applied[p] = applied[p][:base]
			reboot(p, rec, base)
		})
	}
}

// putChain is one client's puts through its own replica, one chain per
// key it puts (in first-appearance order), chain b being history
// process proc+b*stride. The client submits the next put of every
// unfinished chain back to back, a burst; a put returns when THAT
// replica applies it, and the follow-up read of the key's local state at
// the apply point is a valid linearization read, because the chain's
// prior puts are exactly the completed operations on the key. The next
// burst follows a think time after the last put of this one returns.
type putChain struct {
	rec          *check.Recorder
	proc, stride int
	ops          []scenario.Op
	node         *rsm.Node // the client's replica
	// submit proposes cmd at the replica, entering its event loop the
	// way the run's runtime requires; after is the run's timer.
	submit func(cmd rsm.Command) rbcast.MsgID
	after  func(d amp.Time, f func())
	// think draws the delays: below first ticks before the first burst,
	// below gap ticks between a burst's last apply and the next burst.
	think      *scenario.Rand
	first, gap int64
	done       func() // called after each completed put
}

// keyChain is one key's puts within a putChain.
type keyChain struct {
	proc int
	key  string
	vals []int             // the values still to put, the next first
	inv  *check.Invocation // the put in flight
}

// start arms the client (one without ops — a shrunk scenario — arms
// nothing) and returns its burst: the number of keys it puts.
func (pc putChain) start() int {
	var chains []*keyChain
	byKey := make(map[int]*keyChain)
	for _, op := range pc.ops {
		ch := byKey[op.Key]
		if ch == nil {
			ch = &keyChain{proc: pc.proc + len(chains)*pc.stride, key: fmt.Sprintf("k%d", op.Key)}
			byKey[op.Key] = ch
			chains = append(chains, ch)
		}
		ch.vals = append(ch.vals, op.Val)
	}
	if len(chains) == 0 {
		return 0
	}
	wait := make(map[rbcast.MsgID]*keyChain)
	burst := func() {
		for _, ch := range chains {
			if len(ch.vals) > 0 {
				val := ch.vals[0]
				ch.inv = pc.rec.Call(ch.proc, check.KeyedOp{Key: ch.key, Op: check.WriteOp{V: val}})
				wait[pc.submit(rsm.Command{Op: "put", Key: ch.key, Val: val})] = ch
			}
		}
	}
	pc.node.OnApply = func(e rsm.Entry, _ amp.Time) {
		ch := wait[e.ID]
		if ch == nil {
			return
		}
		delete(wait, e.ID)
		ch.inv.Return(nil)
		pc.rec.Call(ch.proc, check.KeyedOp{Key: ch.key, Op: check.ReadOp{}}).Return(pc.node.Get(ch.key))
		ch.vals = ch.vals[1:]
		pc.done()
		if len(wait) == 0 {
			pc.after(amp.Time(1+pc.think.Int63n(pc.gap)), burst)
		}
	}
	pc.after(amp.Time(1+pc.think.Int63n(pc.first)), burst)
	return len(chains)
}
