package shm

// The controlled-execution engine: a reusable coroutine arena that the
// schedulers of this package (Execute, the exhaustive explorer) drive.
//
// Every process body runs inside a persistent coroutine (iter.Pull), one
// per process, created once per engine and reused across executions — the
// exhaustive explorer runs millions of executions on one arena with zero
// spawns. A process's handshake with the scheduler is a pair of plain
// fields on its slot plus one coroutine switch: the scheduler writes the
// grant (a step quota, or a crash order) into the slot and resumes the
// coroutine; the process consumes its quota, running one atomic op per
// step with no handshake at all, and switches back when the quota is
// exhausted (at its next decision point) or its body returns. Because
// scheduler and process alternate on the same goroutine chain, no
// channels, locks, or atomics are involved and a step costs one coroutine
// switch at most — batched grants amortize even that across runs of
// consecutive steps to the same process.
//
// The enabled set (processes parked at a decision point) is a bitset of
// uint64 words updated O(1) on grant, finish, and crash, with a reusable
// sorted-slice view rebuilt lazily only when membership changed — that
// slice is what Policy implementations receive.

import (
	"fmt"
	"iter"
	"math/bits"
	"sync"
)

// ready is the value a process coroutine yields to the scheduler: either
// "parked at a decision point" (finished == false) or "body returned or
// crashed" (finished == true, with any unconsumed step quota returned).
type ready struct {
	finished  bool
	quotaLeft int
}

// slot is one process's persistent handshake state. All fields are plain:
// scheduler and process alternate strictly via coroutine switches, so
// there is never concurrent access.
type slot struct {
	proc  Proc
	next  func() (ready, bool) // resume the process coroutine
	stop  func()               // tear down the coroutine (engine close)
	yield func(ready) bool     // process side: park at a decision point

	body     func(*Proc) any // next execution's body, set by the scheduler
	quota    int             // granted steps the process may still take
	doCrash  bool            // the pending resume is a crash order
	launched bool            // coroutine has entered this execution's body
	output   any             // body return value of the last execution
	crashed  bool            // last execution ended by crash unwind
}

// engine is a reusable controlled scheduler for programs of exactly n
// processes. It is single-threaded: all methods must be called from one
// goroutine. Create with newEngine, release with close.
type engine struct {
	n     int
	slots []slot
	words []uint64 // enabled bitset, (n+63)/64 words (min 1)
	live  int      // number of set bits in words
	list  []int    // sorted enabled ids, valid when !dirty
	dirty bool
	out   *Outcome // outcome of the run in progress

	// prof, once derived by the explorer from an eager first execution,
	// lets later executions of the same deterministic program start
	// lazily: processes are launched on their first step grant, and a
	// process crashed before its first step never runs at all.
	prof *progProfile

	// dpor, when non-nil, makes every granted step record its declared
	// object access (normalized to a creation-order class) — the raw
	// material of the explorer's dependence relation. Nil outside Explore,
	// so ordinary executions pay one branch per step.
	dpor *dporRec
}

// progProfile is what a deterministic program's launch phase always looks
// like: which processes are enabled at the first decision point, and
// which finish without taking any atomic step.
type progProfile struct {
	initWord uint64
	atomless []int
}

func newEngine(n int) *engine {
	nw := (n + 63) / 64
	if nw == 0 {
		nw = 1
	}
	e := &engine{
		n:     n,
		slots: make([]slot, n),
		words: make([]uint64, nw),
		list:  make([]int, 0, n),
	}
	for i := range e.slots {
		s := &e.slots[i]
		s.proc = Proc{id: i, sid: i, eng: e}
		s.next, s.stop = iter.Pull(e.sequence(s))
	}
	return e
}

// close tears down the arena's coroutines. The engine must be quiescent
// (no run in progress).
func (e *engine) close() {
	for i := range e.slots {
		e.slots[i].stop()
	}
}

// sequence is the body loop of one process coroutine: it serves one
// execution per resume cycle, yielding a finish report between
// executions, and lives until the engine is closed.
func (e *engine) sequence(s *slot) iter.Seq[ready] {
	return func(yield func(ready) bool) {
		s.yield = yield
		for {
			body := s.body
			if body == nil {
				return // closed before a body was assigned
			}
			s.body = nil
			s.output, s.crashed = runBody(body, &s.proc)
			q := s.quota
			s.quota = 0
			if !yield(ready{finished: true, quotaLeft: q}) {
				return // engine closed
			}
		}
	}
}

// runBody runs one process body, converting the crash-unwind panic into a
// flag. Any other panic is a real bug and propagates to the scheduler.
func runBody(body func(*Proc) any, p *Proc) (output any, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	return body(p), false
}

// stepAcc implements Proc.atomic/Proc.access for engine-scheduled
// processes: consume one granted step, parking at a decision point when
// the quota is exhausted. oid/write declare the shared-object access of
// the step (oid 0: unknown object, conflicts with everything; oidNone:
// touches nothing); they are recorded only under an exploration.
func (e *engine) stepAcc(sid int, oid uint64, write bool, op func()) {
	s := &e.slots[sid]
	if s.quota == 0 {
		if !s.yield(ready{}) {
			panic(crashSignal{}) // engine closed mid-run: unwind
		}
		if s.doCrash {
			s.doCrash = false
			panic(crashSignal{})
		}
	}
	s.quota--
	if e.dpor != nil {
		e.dpor.record(sid, oid, write)
	}
	op()
}

// --- enabled-set bitset ---

func (e *engine) isEnabled(pid int) bool {
	return pid >= 0 && pid < e.n && e.words[pid>>6]&(1<<(uint(pid)&63)) != 0
}

func (e *engine) setEnabled(pid int) {
	w := &e.words[pid>>6]
	b := uint64(1) << (uint(pid) & 63)
	if *w&b == 0 {
		*w |= b
		e.live++
		e.dirty = true
	}
}

func (e *engine) clearEnabled(pid int) {
	w := &e.words[pid>>6]
	b := uint64(1) << (uint(pid) & 63)
	if *w&b != 0 {
		*w &^= b
		e.live--
		e.dirty = true
	}
}

// enabledList returns the sorted ids of enabled processes, rebuilding the
// reusable slice only when membership changed since the last call. The
// returned slice is valid until the next engine operation.
func (e *engine) enabledList() []int {
	if e.dirty {
		e.list = e.list[:0]
		for wi, w := range e.words {
			base := wi << 6
			for w != 0 {
				e.list = append(e.list, base+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		e.dirty = false
	}
	return e.list
}

// lowestEnabled returns the smallest enabled id (engine must have live > 0).
func (e *engine) lowestEnabled() int {
	for wi, w := range e.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	panic("shm: lowestEnabled on empty set")
}

// --- scheduling primitives ---

// begin starts a new execution of bodies on the arena, running every
// process to its first decision point (or completion) and resetting out
// in place. len(bodies) must equal e.n.
func (e *engine) begin(bodies []func(*Proc) any, out *Outcome) {
	out.reset()
	for i := range e.words {
		e.words[i] = 0
	}
	e.live = 0
	e.dirty = true
	e.out = out
	for i := range bodies {
		s := &e.slots[i]
		s.body = bodies[i]
		s.launched = true
		r, ok := s.next()
		if !ok {
			panic("shm: engine used after close")
		}
		if r.finished {
			e.finish(i, r)
		} else {
			e.setEnabled(i)
		}
	}
}

// beginLazy starts a new execution using the program's launch profile:
// atomless processes run to completion, everyone else is marked enabled
// without being resumed — their coroutine enters the body on first grant.
// Explorer-only (requires n <= 64 and a deterministic program).
func (e *engine) beginLazy(bodies []func(*Proc) any, out *Outcome) {
	out.reset()
	e.out = out
	for i := range bodies {
		s := &e.slots[i]
		s.body = bodies[i]
		s.launched = false
	}
	for _, pid := range e.prof.atomless {
		s := &e.slots[pid]
		s.launched = true
		r, ok := s.next()
		if !ok {
			panic("shm: engine used after close")
		}
		if !r.finished {
			panic("shm: explore replay diverged — program is not deterministic")
		}
		e.finish(pid, r)
	}
	e.words[0] = e.prof.initWord
	e.live = bits.OnesCount64(e.prof.initWord)
	e.dirty = true
}

// finish records a process's completion (normal or crash) in the outcome.
func (e *engine) finish(pid int, r ready) {
	s := &e.slots[pid]
	if r.quotaLeft < 0 {
		panic("shm: negative leftover quota")
	}
	if s.crashed {
		e.out.Crashed[pid] = true
	} else {
		e.out.Finished[pid] = true
		e.out.Outputs[pid] = s.output
	}
	s.output = nil
}

// grantStep grants pid a quota of q atomic steps and resumes it. The
// process runs q steps back to back (or fewer if its body returns first);
// steps actually taken are charged to the outcome. Reports whether the
// process is still running (parked at its next decision point).
func (e *engine) grantStep(pid, q int) bool {
	s := &e.slots[pid]
	s.quota = q
	s.launched = true // a lazy launch fuses with the first grant
	r, ok := s.next()
	if !ok {
		// The coroutine already returned: either the engine was closed or
		// a non-deterministic program finished this process earlier than
		// the recorded schedule said it would.
		panic("shm: step granted to a finished process — engine closed or program not deterministic")
	}
	used := q
	if r.finished {
		used = q - r.quotaLeft
		e.clearEnabled(pid)
		e.finish(pid, r)
	}
	e.out.Steps += used
	e.out.StepsBy[pid] += used
	return !r.finished
}

// grantCrash orders pid to crash at its pending decision point.
func (e *engine) grantCrash(pid int) {
	s := &e.slots[pid]
	if !s.launched {
		// The process never entered its body this execution; by the
		// shared-access contract (all shared state goes through atomic
		// ops) crashing it before its first step is indistinguishable
		// from launching it and unwinding at its first decision point —
		// so skip the launch, the switch, and the unwind panic entirely.
		s.body = nil // don't retain the program past this execution
		e.clearEnabled(pid)
		e.out.Crashed[pid] = true
		return
	}
	s.doCrash = true
	r, ok := s.next()
	if !ok {
		panic("shm: crash granted to a finished process — engine closed or program not deterministic")
	}
	if r.finished {
		e.clearEnabled(pid)
		e.finish(pid, r)
	}
	// A body that swallowed the crash unwind in its own recover yields
	// again and stays enabled; bodies must not recover crash signals.
}

// crashAllEnabled unwinds every enabled process, recording them as
// crashed — the end-of-run cleanup for budget cutoffs and stops.
func (e *engine) crashAllEnabled() {
	for e.live > 0 {
		e.grantCrash(e.lowestEnabled())
	}
}

// beginExplore is begin with launch-profile support: the first execution
// of an exploration runs eagerly and derives the program's profile;
// every later execution starts lazily from it.
func (e *engine) beginExplore(bodies []func(*Proc) any, out *Outcome) {
	if e.prof != nil {
		e.beginLazy(bodies, out)
		return
	}
	e.begin(bodies, out)
	prof := &progProfile{initWord: e.words[0]}
	for i := range bodies {
		if out.Finished[i] {
			prof.atomless = append(prof.atomless, i)
		}
	}
	e.prof = prof
}

// run executes bodies under policy with the given step budget, exactly as
// documented on Execute. It returns the enabled set at a StopRun decision
// (nil if the run ended by completion or budget cutoff).
func (e *engine) run(bodies []func(*Proc) any, policy Policy, maxSteps int, out *Outcome) []int {
	e.begin(bodies, out)
	for e.live > 0 {
		if out.Steps >= maxSteps {
			out.Cutoff = true
			e.crashAllEnabled()
			break
		}
		d := policy.Next(e.enabledList(), out.Steps)
		switch d.Kind {
		case StepProc:
			if !e.isEnabled(d.Pid) {
				panic(fmt.Sprintf("shm: policy chose non-enabled process %d (enabled %v)", d.Pid, e.enabledList()))
			}
			e.grantStep(d.Pid, 1)
		case CrashProc:
			if !e.isEnabled(d.Pid) {
				panic(fmt.Sprintf("shm: policy crashed non-enabled process %d", d.Pid))
			}
			e.grantCrash(d.Pid)
		case StopRun:
			stopped := append([]int(nil), e.enabledList()...)
			out.Stopped = true
			e.crashAllEnabled()
			return stopped
		default:
			panic(fmt.Sprintf("shm: invalid policy decision %+v", d))
		}
	}
	return nil
}

// replay re-executes a schedule prefix, batching runs of consecutive
// steps to the same process into single grants. Prefix decisions must
// have been derived from recorded enabled sets of an earlier execution of
// the same (deterministic) program, so every decision is enabled.
func (e *engine) replay(prefix []Decision) {
	for i := 0; i < len(prefix); {
		d := prefix[i]
		if d.Kind == CrashProc {
			e.grantCrash(d.Pid)
			i++
			continue
		}
		q := 1
		for i+q < len(prefix) && prefix[i+q].Kind == StepProc && prefix[i+q].Pid == d.Pid {
			q++
		}
		before := e.out.StepsBy[d.Pid]
		e.grantStep(d.Pid, q)
		if e.out.StepsBy[d.Pid] != before+q {
			panic("shm: explore replay diverged — program is not deterministic")
		}
		i += q
	}
}

// runExploreDPOR executes one complete schedule: replay prefix, then
// extend by always stepping the lowest enabled process whose step is not
// in the sleep set, filtering the sleep set through each executed step's
// access, until the run completes or hits the step budget. The enabled
// set at every decision point past the prefix is appended to rec as a
// bitset word, which is what lets the explorer enumerate sibling branches
// without re-executing interior nodes. Supports n <= 64. sleep is the
// sleep set AT the node the prefix leads to when filterLast is false;
// when filterLast is true it is the sleep set at the prefix's parent node
// (including explored-sibling entries) and is filtered through the
// prefix's final decision first. If every enabled process's step is
// asleep the extension stops: the remaining subtree is covered by
// earlier-explored sibling branches, and the partial execution is
// reported with pruned == true (its word is the enabled set at the pruned
// node; the outcome is meaningless and must not be checked). Accesses of
// every step — replayed and extended — are left in e.dpor.accs for the
// explorer.
func (e *engine) runExploreDPOR(bodies []func(*Proc) any, prefix []Decision, sleep []dporSleep, filterLast bool, maxSteps int, out *Outcome, rec []uint64) (recOut []uint64, prunedWord uint64, pruned bool) {
	d := e.dpor
	d.accs = d.accs[:0]
	e.beginExplore(bodies, out)
	e.replay(prefix)
	ws := append(d.scratch[:0], sleep...)
	if filterLast && len(prefix) > 0 {
		last := prefix[len(prefix)-1]
		if last.Kind == CrashProc {
			ws = dporFilterSleep(ws, uint8(last.Pid), true, dporAcc{}, d.crashDep)
		} else {
			ws = dporFilterSleep(ws, uint8(last.Pid), false, d.accs[len(d.accs)-1].acc, d.crashDep)
		}
	}
	defer func() { d.scratch = ws[:0] }()
	for e.live > 0 {
		if out.Steps >= maxSteps {
			out.Cutoff = true
			e.crashAllEnabled()
			break
		}
		w := e.words[0]
		var slp uint64
		minSleep := 64
		for _, s := range ws {
			if !s.crash {
				slp |= 1 << (s.pid & 63)
				if int(s.pid) < minSleep {
					minSleep = int(s.pid)
				}
			}
		}
		free := w &^ slp
		if free == 0 {
			e.crashAllEnabled()
			return rec, w, true
		}
		pid := bits.TrailingZeros64(free)
		// Batching a run of consecutive steps to pid is safe only while no
		// lower-id step is asleep: filtering could wake it mid-batch, which
		// would change the lowest-non-sleeping choice.
		q := 1
		if pid < minSleep {
			q = maxSteps - out.Steps
		}
		before := out.StepsBy[pid]
		accStart := len(d.accs)
		e.grantStep(pid, q)
		for k := 0; k < out.StepsBy[pid]-before; k++ {
			rec = append(rec, w)
			ws = dporFilterSleep(ws, uint8(pid), false, d.accs[accStart+k].acc, d.crashDep)
		}
	}
	return rec, 0, false
}

func newOutcome(n int) *Outcome {
	return &Outcome{
		Outputs:  make([]any, n),
		Finished: make([]bool, n),
		Crashed:  make([]bool, n),
		StepsBy:  make([]int, n),
	}
}

// --- engine pool ---
//
// Engines are expensive enough to matter for small workloads (n coroutine
// creations each), so quiescent arenas are kept on a per-size freelist
// and handed back out to later Execute/Explore calls.

const (
	enginePoolCap      = 16   // retained engines per process count
	enginePoolMaxCoros = 4096 // total parked coroutines across all sizes
)

var enginePool struct {
	sync.Mutex
	bySize map[int][]*engine
	coros  int // parked process coroutines held by the pool
}

func getEngine(n int) *engine {
	enginePool.Lock()
	free := enginePool.bySize[n]
	if len(free) > 0 {
		e := free[len(free)-1]
		enginePool.bySize[n] = free[:len(free)-1]
		enginePool.coros -= n
		enginePool.Unlock()
		return e
	}
	enginePool.Unlock()
	return newEngine(n)
}

// putEngine returns a quiescent engine (no run in progress) to the pool,
// or tears it down when the pool is full — both a per-size and a global
// coroutine budget bound retention, so sweeping over many distinct
// program sizes cannot accumulate parked coroutines without limit.
func putEngine(e *engine) {
	e.prof = nil // the launch profile belongs to one program only
	e.out = nil  // don't pin the caller's Outcome from the pool
	e.dpor = nil // access recording belongs to one exploration only
	enginePool.Lock()
	if enginePool.bySize == nil {
		enginePool.bySize = make(map[int][]*engine)
	}
	if len(enginePool.bySize[e.n]) < enginePoolCap && enginePool.coros+e.n <= enginePoolMaxCoros {
		enginePool.bySize[e.n] = append(enginePool.bySize[e.n], e)
		enginePool.coros += e.n
		enginePool.Unlock()
		return
	}
	enginePool.Unlock()
	e.close()
}

// withEngine runs f with a pooled engine, returning it to the pool on
// normal completion and tearing it down if f panics mid-run (close
// unwinds coroutines parked at any point, so a half-run engine is still
// released cleanly).
func withEngine(n int, f func(e *engine)) {
	e := getEngine(n)
	ok := false
	defer func() {
		if ok {
			putEngine(e)
		} else {
			e.close()
		}
	}()
	f(e)
	ok = true
}
