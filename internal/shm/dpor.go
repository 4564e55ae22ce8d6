package shm

// The search behind Explore: one leaf-only depth-first search with sleep
// sets (Godefroid), which is both the full enumeration and, with
// ExploreOpts.DPOR, its dynamic partial-order reduction. Two complete
// schedules that differ only in the order of adjacent independent steps —
// steps of different processes touching different objects, or at most
// reading the same one — are Mazurkiewicz-equivalent: they visit the same
// states and produce the same outcome. Full enumeration visits every
// member of every equivalence class; the reduction visits exactly one
// representative per class.
//
// # The search
//
// The program is executed once per COMPLETE schedule (one leaf of the
// decision tree): each instrumented execution records the enabled set at
// every decision point, so the DFS enumerates sibling branches from the
// recording instead of re-executing the program at interior nodes the
// way the seed explorer did. All executions of a search run on the
// calling goroutine and share one coroutine arena (engine.go).
//
// Each node of the decision tree carries a sleep set: transitions whose
// subtrees are already covered by an earlier sibling branch. Descending
// into child t, the child's sleep set is the node's minus every entry
// dependent with t; under the reduction, backtracking out of t adds t to
// the node's set for its later siblings. The extension of each execution
// steps the lowest enabled process whose step is not asleep; when every
// enabled step is asleep, every completion from the node is equivalent
// to one already explored, and the partial execution is abandoned (not
// counted, not checked). In a tree search (no state caching) sleep sets
// alone visit exactly one complete execution per Mazurkiewicz class,
// which is optimal for trace reduction; the persistent/backtrack set at
// every node is the full enabled set, which is trivially persistent (the
// pruned partial executions are the price, bounded by one per abandoned
// class).
//
// Full enumeration = nothing asleep, seed child order. With
// ExploreOpts.DPOR off no finished child is ever put to sleep, so every
// sleep set stays empty: the extension steps the lowest enabled process,
// nothing is abandoned, and every schedule is a leaf. Children are then
// ordered as the seed explorer ordered them (childDecision), so
// Executions, Violation and Schedule equal the deleted seed explorer's
// exactly (its answers are pinned: the shmexplore model's digests,
// dpor_test.go's fence digest, agreement's E4 rows).
// That one bool is all that tells the two searches apart: it gates the
// sleep entry of a finished child on backtrack, the child order, the
// crash-dependence restart below, and the construction mutex of
// dporRuns.make.
//
// # Dependence relation
//
// Every atomic step declares the shared object it touches (a
// creation-order id assigned by the object constructors in objects.go)
// and whether it may write it. Two steps are dependent iff they belong
// to the same process, or they touch the same object and at least one
// writes it. A Yield touches nothing and is independent of every other
// process's steps; a step with no declaration (shm.Atomic, objects built
// without their constructor) conservatively conflicts with everything.
// A crash is dependent only with its own process's transitions: crashing
// p commutes with every step and crash of q != p.
//
// Object identity must be stable across the millions of executions of
// one search, each of which constructs fresh objects via Factory. The
// ids are creation-order: a global counter, a mutex serializing Factory
// calls of DPOR explorations, and per-execution normalization of raw ids
// against the window the call reserved. Deterministic factories create
// the same objects in the same order, so "k-th object created" names the
// same program object in every execution. Construction on other
// goroutines cannot shift a window: the first execution's window is
// built with their draws held off, and a later one that counts more
// objects is built again that way (dporRuns.make). If the count still deviates (a non-deterministic
// factory), normalization degrades every access to
// conflicts-with-everything — no pruning, never wrong.
//
// # Step budgets and crashes
//
// The soundness of pruning under the step-budget cutoff rests on
// equivalence preserving length and per-process step counts: the
// representative of a cutoff leaf's class is itself a cutoff leaf with
// the same outcome. That argument covers step/step swaps, but not
// crash/step swaps: a crash consumes no step budget, so moving a crash
// LATER across a step can push it onto a node at the budget boundary —
// a node the explored tree ends as a cutoff leaf, with no crash
// children. Concretely, [crash(p), step(q)] is in the tree whenever
// [step(q), crash(p)] is, but not conversely, so treating them as
// independent lets a sleeping step(q) prune a crash branch whose
// continuations the step(q)-first subtree never actually contained.
// When crashes are possible and the budget is reachable, crash
// transitions are therefore declared dependent with every step
// (crash/crash swaps move neither crash's step offset and stay
// independent). The mode is static when the caller set MaxSteps; under
// the default budget the search runs with full reduction and, if a
// cutoff is nonetheless observed without a violation, is restarted in
// the dependent mode. The trigger is computed from counted executions
// only; a pruned partial execution never sets it.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// objSeq hands out creation-order object identities (see newObjID). The
// zero id is reserved for "unknown object" (conflicts with everything).
var objSeq atomic.Uint64

// dporFactoryMu serializes the Factory calls of DPOR explorations. A
// fenced call (dporRuns.make) also holds drawGate, which every other
// goroutine's draw read-locks, so its window holds its own objects only;
// fencer names the goroutine that draws past the gate.
var (
	dporFactoryMu sync.Mutex
	drawGate      sync.RWMutex
	fencer        atomic.Uint64
)

// newObjID reserves one creation-order object identity.
func newObjID() uint64 { return newObjIDBlock(1) }

// newObjIDBlock reserves m consecutive identities, returning the first.
func newObjIDBlock(m int) uint64 {
	if g := fencer.Load(); g == 0 || g != goid() {
		drawGate.RLock()
		defer drawGate.RUnlock()
	}
	return objSeq.Add(uint64(m)) - uint64(m) + 1
}

// goid is the calling goroutine's id, off its stack trace's first line
// ("goroutine 17 [running]:"). Only draws during a fenced call pay it.
func goid() uint64 {
	var buf [32]byte
	var id uint64
	for _, c := range buf[len("goroutine "):runtime.Stack(buf[:], false)] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// oidNone marks a step that touches no shared object (Yield).
const oidNone = ^uint64(0)

// Access classes after normalization. Classes >= 2 name the (cls-2)-th
// object created by the execution's Factory call.
const (
	clsConflict = 0 // unknown object: dependent with every access
	clsNone     = 1 // touches nothing: independent of everything
)

// dporAcc is one step's normalized object access.
type dporAcc struct {
	cls   uint32
	write bool
}

// dporStep is one recorded step: its access and the process that took it.
type dporStep struct {
	acc dporAcc
	pid uint8
}

// dporSleep is one sleep-set entry: a transition (step or crash of pid)
// whose subtree is covered by an earlier sibling branch. acc is the
// step's access (unused for crash entries).
type dporSleep struct {
	pid   uint8
	crash bool
	acc   dporAcc
}

// dporDependsDefault is the dependence relation on accesses of DIFFERENT
// processes (same-process transitions are always dependent and handled
// by pid comparison in dporFilterSleep).
func dporDependsDefault(a, b dporAcc) bool {
	if a.cls == clsNone || b.cls == clsNone {
		return false
	}
	if a.cls == clsConflict || b.cls == clsConflict {
		return true
	}
	return a.cls == b.cls && (a.write || b.write)
}

// dporDepends is the dependence relation in effect. It is a variable
// only so the differential fence can mutation-verify itself by wiring a
// deliberately-wrong relation and confirming the fence fails.
var dporDepends = dporDependsDefault

// dporFilterSleep removes from sleep (in place) every entry dependent
// with the executed transition: pid stepping with access acc, or pid
// crashing (crash == true, acc ignored). In crashDep mode crash
// transitions are additionally dependent with every step (see the
// step-budget discussion in the package comment above).
func dporFilterSleep(sleep []dporSleep, pid uint8, crash bool, acc dporAcc, crashDep bool) []dporSleep {
	kept := sleep[:0]
	for _, s := range sleep {
		if s.pid == pid {
			continue // same process: transitions never commute
		}
		if crashDep && s.crash != crash {
			continue // crash vs step: dependent under a reachable budget
		}
		if !crash && !s.crash && dporDepends(s.acc, acc) {
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// dporSleepContains reports whether the transition d is asleep.
func dporSleepContains(sleep []dporSleep, d Decision) bool {
	crash := d.Kind == CrashProc
	for _, s := range sleep {
		if int(s.pid) == d.Pid && s.crash == crash {
			return true
		}
	}
	return false
}

// dporRec is the engine-side access recorder of one exploration:
// raw object ids are normalized against the current execution's Factory
// window as steps execute. accs holds one entry per step of the current
// execution (replayed prefix included; crashes record nothing).
type dporRec struct {
	base     uint64 // objSeq before the execution's Factory call
	count    uint64 // ids the call reserved
	unstable bool   // normalization off: every access is clsConflict
	crashDep bool   // crash transitions dependent with every step
	accs     []dporStep
	scratch  []dporSleep // engine-local working sleep set
}

// setExec points normalization at the current execution's id window.
func (d *dporRec) setExec(base, count uint64, unstable bool) {
	if count >= 1<<30 {
		unstable = true // class must fit uint32
	}
	d.base, d.count, d.unstable = base, count, unstable
}

// record normalizes and appends one step's access.
func (d *dporRec) record(sid int, oid uint64, write bool) {
	cls := uint32(clsConflict)
	switch {
	case oid == oidNone:
		cls = clsNone
	case !d.unstable && oid > d.base && oid-d.base <= d.count:
		cls = uint32(2 + (oid - d.base - 1))
	}
	d.accs = append(d.accs, dporStep{acc: dporAcc{cls: cls, write: write}, pid: uint8(sid)})
}

// dporRuns is the per-exploration factory state: every Factory call
// goes through make, which reserves the id window and checks that the
// call constructed as many objects as the first one.
type dporRuns struct {
	expected  int64 // objects per Factory call, -1 until known
	unstable  bool  // some call deviated: every access is clsConflict
	crashDep  bool  // this attempt's crash/step dependence mode
	sawCutoff bool  // some counted execution hit the step budget
}

func newDPORRuns(crashDep bool) *dporRuns {
	return &dporRuns{expected: -1, crashDep: crashDep}
}

// make runs the factory under the construction mutex and returns the run
// with its id window. The first call is fenced, so its count is the
// factory's own; a later window that counts more drew other goroutines'
// ids and is made again, fenced. Any other deviation is the factory's
// (it is not deterministic) and turns normalization off. With the
// reduction off no access class is ever consulted, so there is no window
// to reserve.
func (r *dporRuns) make(opts *ExploreOpts) (*Run, uint64, uint64) {
	if !opts.DPOR {
		return opts.Factory(), 0, 0
	}
	dporFactoryMu.Lock()
	defer dporFactoryMu.Unlock()
	for fenced := r.expected < 0; ; fenced = true {
		run, base, count := factoryWindow(opts.Factory, fenced)
		switch {
		case r.expected < 0:
			r.expected = int64(count)
		case int64(count) > r.expected && !fenced:
			continue
		case int64(count) != r.expected:
			r.unstable = true
		}
		return run, base, count
	}
}

// factoryWindow calls factory, fenced or not, and returns its run and id window.
func factoryWindow(factory func() *Run, fenced bool) (*Run, uint64, uint64) {
	if fenced {
		drawGate.Lock()
		fencer.Store(goid())
		defer func() {
			fencer.Store(0)
			drawGate.Unlock()
		}()
	}
	base := objSeq.Load()
	run := factory()
	return run, base, objSeq.Load() - base
}

// childDecision maps a child index to its scheduling decision. Full
// enumeration (stepsFirst false) orders children exactly as the seed
// explorer did — for each enabled id in ascending order, first stepping
// it, then (crash budget permitting) crashing it — so leaves are visited
// in the same depth-first order. The reduction (stepsFirst true) puts the
// steps of every enabled id in ascending order before the crashes in
// ascending order: the extension loop takes the first non-sleeping STEP
// child, and the backtrack only ever moves to later children, so no
// crash may sit before a step that can still be taken.
func childDecision(word uint64, idx int, canCrash, stepsFirst bool) Decision {
	kind := StepProc
	if canCrash {
		if k := bits.OnesCount64(word); stepsFirst {
			if idx >= k {
				kind, idx = CrashProc, idx-k
			}
		} else {
			if idx&1 == 1 {
				kind = CrashProc
			}
			idx >>= 1
		}
	}
	w := word
	for ; idx > 0; idx-- {
		w &= w - 1
	}
	return Decision{Kind: kind, Pid: bits.TrailingZeros64(w)}
}

// dporLevel is one decision point on the DFS stack.
type dporLevel struct {
	word    uint64 // enabled set at this decision point
	child   int    // child currently being explored (-1: none yet)
	nchild  int
	crashes int     // CrashProc decisions before this point
	soff    int     // this node's sleep set: arena[soff : soff+slen]
	slen    int     // (explored-sibling entries are appended to it)
	stepIdx int     // StepProc decisions before this point
	curAcc  dporAcc // access of the step child currently descending
}

// dporExplorer runs the leaf-only sleep-set DFS, reusing a single
// engine, outcome, and recording buffer across all of the search's
// executions, plus an arena of per-level sleep sets managed with the
// same LIFO discipline as the level stack.
type dporExplorer struct {
	eng      *engine
	opts     *ExploreOpts
	runs     *dporRuns
	maxSteps int
	out      *Outcome
	rec      []uint64
	prefix   []Decision
	stack    []dporLevel
	arena    []dporSleep
	res      ExploreResult
}

// explore runs the DFS from the root, stopping at the first violation
// or, between leaves, once MaxExecutions executions are counted. first
// (with its id window) is the program of the initial execution, in
// place of a Factory call.
func (s *dporExplorer) explore(first *Run, firstBase, firstCount uint64) {
	dpor := s.opts.DPOR // the reduction: finished children go to sleep, steps-first child order
	crashes := 0
	// The sleep set handed to the next execution: empty at the root;
	// after a backtrack, the branch level's set (including sibling
	// entries), which the engine filters through the branch decision
	// (filterLast).
	curOff, curLen := 0, 0
	filterLast := false
	parent := -1 // stack index of the level being branched from
	for {
		run := first
		rb, rc := firstBase, firstCount
		if run == nil {
			run, rb, rc = s.runs.make(s.opts)
		}
		first = nil
		s.eng.dpor.setExec(rb, rc, s.runs.unstable)
		var prunedWord uint64
		var pruned bool
		s.rec, prunedWord, pruned = s.eng.runExploreDPOR(run.Bodies, s.prefix, s.arena[curOff:curOff+curLen], filterLast, s.maxSteps, s.out, s.rec[:0])
		accs := s.eng.dpor.accs
		// stepIdx of the first extension decision point; also resolve the
		// branch step's access now that it has executed.
		stepIdx := 0
		if parent >= 0 {
			L := &s.stack[parent]
			stepIdx = L.stepIdx
			if d := s.prefix[len(s.prefix)-1]; d.Kind == StepProc {
				L.curAcc = accs[L.stepIdx].acc
				stepIdx++
			}
		}
		if !pruned {
			s.res.Executions++
			if s.out.Cutoff {
				s.runs.sawCutoff = true
			}
			if reason := s.opts.Check(s.out); reason != "" {
				s.res.Violation = reason
				sched := make([]Decision, 0, len(s.prefix)+len(s.rec))
				sched = append(sched, s.prefix...)
				for i := range s.rec {
					sched = append(sched, Decision{Kind: StepProc, Pid: int(accs[stepIdx+i].pid)})
				}
				s.res.Schedule = sched
				return
			}
		}
		// At-node sleep set of the first extension decision point: the
		// branch level's set filtered through the branch decision (the
		// engine computed the same internally; rebuild it for the stack).
		if filterLast && len(s.prefix) > 0 {
			d := s.prefix[len(s.prefix)-1]
			var acc dporAcc
			if d.Kind == StepProc && parent >= 0 {
				acc = s.stack[parent].curAcc
			}
			newOff := len(s.arena)
			s.arena = append(s.arena, s.arena[curOff:curOff+curLen]...)
			filtered := dporFilterSleep(s.arena[newOff:], uint8(d.Pid), d.Kind == CrashProc, acc, s.runs.crashDep)
			s.arena = s.arena[:newOff+len(filtered)]
			curOff, curLen = newOff, len(filtered)
		}
		// The executed tail's decision points become stack levels. The
		// child taken at each is the lowest enabled id whose step was not
		// asleep — not necessarily child 0, but always child 0 when nothing
		// is asleep, so the steps-first index below is right in seed order
		// too.
		for i, w := range s.rec {
			a := accs[stepIdx+i]
			taken := bits.OnesCount64(w & (1<<(a.pid&63) - 1))
			nc := bits.OnesCount64(w)
			if crashes < s.opts.MaxCrashes {
				nc *= 2
			}
			s.stack = append(s.stack, dporLevel{
				word: w, child: taken, nchild: nc, crashes: crashes,
				soff: curOff, slen: curLen, stepIdx: stepIdx + i, curAcc: a.acc,
			})
			s.prefix = append(s.prefix, Decision{Kind: StepProc, Pid: int(a.pid)})
			newOff := len(s.arena)
			s.arena = append(s.arena, s.arena[curOff:curOff+curLen]...)
			filtered := dporFilterSleep(s.arena[newOff:], a.pid, false, a.acc, s.runs.crashDep)
			s.arena = s.arena[:newOff+len(filtered)]
			curOff, curLen = newOff, len(filtered)
		}
		if pruned {
			// Every enabled step at the final node is asleep; only its
			// crash children (if any) remain.
			nc := bits.OnesCount64(prunedWord)
			if crashes < s.opts.MaxCrashes {
				nc *= 2
			}
			s.stack = append(s.stack, dporLevel{
				word: prunedWord, child: -1, nchild: nc, crashes: crashes,
				soff: curOff, slen: curLen, stepIdx: stepIdx + len(s.rec),
			})
			s.prefix = append(s.prefix, Decision{}) // overwritten on descent
		}
		// Backtrack to the deepest decision point with an unexplored,
		// non-sleeping child and descend into it.
		for {
			if len(s.stack) == 0 {
				return // tree exhausted
			}
			idx := len(s.stack) - 1
			top := &s.stack[idx]
			canCrash := top.crashes < s.opts.MaxCrashes
			// Reclaim the arena above this node's set, then (this is the
			// reduction) put the finished child to sleep for its later
			// siblings.
			s.arena = s.arena[:top.soff+top.slen]
			if dpor && top.child >= 0 {
				d := childDecision(top.word, top.child, canCrash, dpor)
				s.arena = append(s.arena, dporSleep{pid: uint8(d.Pid), crash: d.Kind == CrashProc, acc: top.curAcc})
				top.slen++
			}
			next := -1
			for c := top.child + 1; c < top.nchild; c++ {
				if !dporSleepContains(s.arena[top.soff:top.soff+top.slen], childDecision(top.word, c, canCrash, dpor)) {
					next = c
					break
				}
			}
			if next >= 0 {
				top.child = next
				d := childDecision(top.word, next, canCrash, dpor)
				s.prefix = s.prefix[:len(s.stack)]
				s.prefix[len(s.prefix)-1] = d
				crashes = top.crashes
				if d.Kind == CrashProc {
					crashes++
				}
				curOff, curLen = top.soff, top.slen
				filterLast = true
				parent = idx
				break
			}
			s.stack = s.stack[:idx]
		}
		if limit := s.opts.MaxExecutions; limit > 0 && s.res.Executions >= limit {
			s.res.Truncated = true
			return
		}
	}
}

// exploreAttempt runs one search in the given crash/step dependence
// mode, and reports whether some counted execution hit the step budget
// (Explore's restart trigger).
func exploreAttempt(opts *ExploreOpts, maxSteps int, crashDep bool) (*ExploreResult, bool) {
	runs := newDPORRuns(crashDep)
	first, base, count := runs.make(opts)
	n := len(first.Bodies)
	if n > 64 {
		panic("shm: Explore supports at most 64 processes")
	}
	s := &dporExplorer{opts: opts, runs: runs, maxSteps: maxSteps, out: newOutcome(n)}
	withEngine(n, func(eng *engine) {
		eng.dpor = &dporRec{crashDep: crashDep}
		s.eng = eng
		s.explore(first, base, count)
	})
	return &s.res, runs.sawCutoff
}
