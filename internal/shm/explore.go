package shm

// Exhaustive interleaving exploration. Wait-free correctness claims (§4.2)
// are universally quantified over schedules and crash patterns; for small
// programs this explorer checks them by enumerating EVERY schedule (and,
// optionally, every crash pattern). This is how the consensus-hierarchy
// table (E4) is validated rather than asserted.
//
// The explorer executes the program once per COMPLETE schedule (one leaf
// of the decision tree): each instrumented execution records the enabled
// set at every decision point, so the DFS enumerates sibling branches
// from the recording instead of re-executing the program at interior
// nodes the way the seed explorer did (ExploreOpts.Legacy). All
// executions of a search share one coroutine arena (engine.go), and the
// top-level decision frontier can be fanned out across parallel workers
// (ExploreOpts.Workers) with the reported violation still the first one
// in depth-first order.

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ExploreOpts configures an exhaustive exploration.
type ExploreOpts struct {
	// Factory builds a fresh program (fresh shared objects, fresh bodies).
	// Called once per explored execution — plus a few extra times to size
	// the engine and, with Workers > 1, to partition the frontier — so
	// bodies must be deterministic and construction side-effect free.
	Factory func() *Run
	// MaxCrashes enables crash branching: at every decision point, in
	// addition to stepping each enabled process, the explorer also tries
	// crashing each enabled process, while fewer than MaxCrashes processes
	// have crashed. In the wait-free model ASMn,n-1[∅] set it to n-1.
	MaxCrashes int
	// MaxSteps bounds each execution's total step count (0 means
	// DefaultExploreSteps). Executions that hit the bound are reported to
	// Check with Cutoff=true (e.g. livelocked obstruction-free runs).
	MaxSteps int
	// Check inspects each completed execution and returns "" if it is
	// correct, or a description of the violation (which aborts the
	// exploration). The Outcome is reused across executions: it is valid
	// only for the duration of the call.
	Check func(out *Outcome) string
	// MaxExecutions caps the number of executions explored (0 =
	// unlimited). A non-zero cap forces serial exploration.
	MaxExecutions int
	// Workers > 1 splits the top-level decision frontier across that many
	// parallel workers. The result is deterministic — Executions,
	// Violation, and Schedule match a serial run — but Factory and Check
	// must be safe for concurrent use.
	Workers int
	// DPOR enables dynamic partial-order reduction (dpor.go): schedules
	// that differ only in the order of adjacent independent steps are
	// explored once per equivalence class instead of once per member.
	// Violation presence is preserved — a violating execution exists iff
	// the pruned search finds one — but Executions shrinks (it counts
	// class representatives) and the reported Schedule may be a
	// permutation of the one full enumeration would report. Composes with
	// Workers and MaxExecutions; ignored under Legacy.
	DPOR bool
	// Legacy runs the seed-era explorer (an execution per tree node on
	// the goroutine-per-process engine), the differential-testing fence
	// for the leaf-only explorer.
	Legacy bool
}

// DefaultExploreSteps bounds per-execution steps during exploration.
const DefaultExploreSteps = 10_000

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	// Executions is the number of complete executions checked.
	Executions int
	// Violation describes the first violating execution ("" if none).
	Violation string
	// Schedule is the decision sequence of the violating execution.
	Schedule []Decision
	// Truncated reports that MaxExecutions stopped the search early.
	Truncated bool
}

// Explore exhaustively enumerates schedules (depth-first over the
// decision tree) and checks every complete execution. Programs of up to
// 64 processes are supported (an exhaustive search beyond that is
// intractable anyway).
func Explore(opts ExploreOpts) *ExploreResult {
	if opts.Legacy {
		return exploreLegacy(opts)
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultExploreSteps
	}
	if opts.DPOR {
		return exploreDPOR(&opts, maxSteps)
	}
	first := opts.Factory()
	n := len(first.Bodies)
	if n > 64 {
		panic("shm: Explore supports at most 64 processes")
	}
	if opts.Workers > 1 && opts.MaxExecutions == 0 && n > 0 {
		return exploreParallel(&opts, n, maxSteps, first)
	}

	res := &ExploreResult{}
	withEngine(n, func(eng *engine) {
		sub := newSubExplorer(eng, &opts, maxSteps, n)
		sub.explore(first, nil, 0, func() bool {
			if opts.MaxExecutions > 0 && sub.executions >= opts.MaxExecutions {
				res.Truncated = true
				return false
			}
			return true
		})
		res.Executions = sub.executions
		res.Violation = sub.violation
		res.Schedule = sub.schedule
	})
	return res
}

// exLevel is one decision point on the DFS stack: the enabled set
// recorded there, and which of its children is being explored. Children
// are ordered exactly as in the seed explorer — for each enabled id in
// ascending order, first stepping it, then (crash budget permitting)
// crashing it — so leaves are visited in the same depth-first order.
type exLevel struct {
	word    uint64 // enabled set at this decision point
	child   int    // index of the child currently being explored
	nchild  int    // total children of this node
	crashes int    // CrashProc decisions in the schedule before this point
}

// childDecision maps a child index to its scheduling decision.
func childDecision(word uint64, idx int, canCrash bool) Decision {
	kind := StepProc
	if canCrash {
		if idx&1 == 1 {
			kind = CrashProc
		}
		idx >>= 1
	}
	w := word
	for ; idx > 0; idx-- {
		w &= w - 1
	}
	return Decision{Kind: kind, Pid: bits.TrailingZeros64(w)}
}

// subExplorer runs the leaf-only DFS over one subtree of the decision
// tree, reusing a single engine, outcome, and recording buffer across
// all of the subtree's executions.
type subExplorer struct {
	eng      *engine
	opts     *ExploreOpts
	maxSteps int
	out      *Outcome
	rec      []uint64
	prefix   []Decision
	stack    []exLevel

	executions int
	violation  string
	schedule   []Decision
}

func newSubExplorer(eng *engine, opts *ExploreOpts, maxSteps, n int) *subExplorer {
	return &subExplorer{eng: eng, opts: opts, maxSteps: maxSteps, out: newOutcome(n)}
}

// explore runs the DFS over all extensions of base (a schedule prefix
// containing baseCrashes crashes), accumulating into s.executions and
// stopping at the subtree's first violation. cont is polled between
// leaves; returning false stops the search. If first is non-nil it is
// used as the program for the initial execution in place of a Factory
// call.
func (s *subExplorer) explore(first *Run, base []Decision, baseCrashes int, cont func() bool) {
	s.prefix = append(s.prefix[:0], base...)
	s.stack = s.stack[:0]
	crashes := baseCrashes
	for {
		run := first
		if run == nil {
			run = s.opts.Factory()
		}
		first = nil
		s.rec = s.eng.runExplore(run.Bodies, s.prefix, s.maxSteps, s.out, s.rec[:0])
		s.executions++
		if reason := s.opts.Check(s.out); reason != "" {
			s.violation = reason
			sched := make([]Decision, 0, len(s.prefix)+len(s.rec))
			sched = append(sched, s.prefix...)
			for _, w := range s.rec {
				sched = append(sched, Decision{Kind: StepProc, Pid: bits.TrailingZeros64(w)})
			}
			s.schedule = sched
			return
		}
		// The executed tail's decision points become stack levels; the
		// tail took child 0 (step the lowest enabled id) at each.
		for _, w := range s.rec {
			nc := bits.OnesCount64(w)
			if crashes < s.opts.MaxCrashes {
				nc *= 2
			}
			s.stack = append(s.stack, exLevel{word: w, nchild: nc, crashes: crashes})
			s.prefix = append(s.prefix, Decision{Kind: StepProc, Pid: bits.TrailingZeros64(w)})
		}
		// Backtrack to the deepest decision point with an unexplored
		// child and descend into it.
		for {
			if len(s.stack) == 0 {
				return // subtree exhausted
			}
			top := &s.stack[len(s.stack)-1]
			top.child++
			if top.child < top.nchild {
				d := childDecision(top.word, top.child, top.crashes < s.opts.MaxCrashes)
				s.prefix = s.prefix[:len(base)+len(s.stack)]
				s.prefix[len(s.prefix)-1] = d
				crashes = top.crashes
				if d.Kind == CrashProc {
					crashes++
				}
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
		if !cont() {
			return
		}
	}
}

// exploreParallel fans the exploration out over the top-level decision
// frontier: the tree is expanded breadth-first (order-preserving) until
// it is wider than the worker count, then workers claim subtrees in
// depth-first order. The first violation in global DFS order wins, and
// the execution count matches a serial run: completed subtrees after the
// winning one are discarded.
func exploreParallel(opts *ExploreOpts, n, maxSteps int, first *Run) *ExploreResult {
	type frontierNode struct {
		prefix  []Decision
		crashes int
		leaf    bool
	}

	target := opts.Workers * 4
	frontier := []frontierNode{{}}
	withEngine(n, func(eng *engine) {
		scratch := newOutcome(n)
		for len(frontier) < target {
			expanded := false
			next := make([]frontierNode, 0, 2*len(frontier))
			for _, nd := range frontier {
				if nd.leaf {
					next = append(next, nd)
					continue
				}
				run := first
				if run == nil {
					run = opts.Factory()
				}
				first = nil
				w, ok := eng.probe(run.Bodies, nd.prefix, maxSteps, scratch)
				if !ok {
					nd.leaf = true
					next = append(next, nd)
					continue
				}
				expanded = true
				canCrash := nd.crashes < opts.MaxCrashes
				nc := bits.OnesCount64(w)
				if canCrash {
					nc *= 2
				}
				for c := 0; c < nc; c++ {
					d := childDecision(w, c, canCrash)
					child := frontierNode{
						prefix:  append(append(make([]Decision, 0, len(nd.prefix)+1), nd.prefix...), d),
						crashes: nd.crashes,
					}
					if d.Kind == CrashProc {
						child.crashes++
					}
					next = append(next, child)
				}
			}
			widened := len(next) > len(frontier)
			frontier = next
			// Stop when nothing expanded (all leaves) or when a pass added
			// no width — a chain-shaped tree top would otherwise make each
			// pass replay an ever-longer prefix for no extra parallelism.
			if !expanded || !widened {
				break
			}
		}
	})

	return dispatchRoots(opts.Workers, n, len(frontier), func(weng *engine) func(int, func() bool) rootResult {
		sub := newSubExplorer(weng, opts, maxSteps, n)
		return func(r int, cont func() bool) rootResult {
			sub.executions, sub.violation, sub.schedule = 0, "", nil
			sub.explore(nil, frontier[r].prefix, frontier[r].crashes, cont)
			return rootResult{sub.executions, sub.violation, sub.schedule}
		}
	})
}

// rootResult is what exploring one frontier root's subtree produced.
type rootResult struct {
	executions int
	violation  string
	schedule   []Decision
}

// dispatchRoots is the parallel root dispatcher of both explorers:
// workers claim the frontier's roots in depth-first order and explore
// each with the function newWorker built for their engine, which polls
// cont between leaves and stops when it returns false. The first
// violation in global DFS order wins, and the execution count matches a
// serial run: serial DFS would have fully explored every subtree before
// the winning one and stopped inside it, so later subtrees are
// abandoned or discarded.
func dispatchRoots(workers, n, roots int, newWorker func(*engine) func(r int, cont func() bool) rootResult) *ExploreResult {
	results := make([]rootResult, roots)
	var nextRoot atomic.Int64
	var minViol atomic.Int64
	minViol.Store(int64(roots)) // sentinel: no violation yet
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			withEngine(n, func(weng *engine) {
				explore := newWorker(weng)
				for {
					r := int(nextRoot.Add(1) - 1)
					if r >= roots {
						return
					}
					beaten := func() bool { return int64(r) > minViol.Load() }
					if beaten() {
						continue // an earlier subtree already holds a violation
					}
					res := explore(r, func() bool { return !beaten() })
					if beaten() {
						continue
					}
					results[r] = res
					if res.violation != "" {
						for {
							cur := minViol.Load()
							if int64(r) >= cur || minViol.CompareAndSwap(cur, int64(r)) {
								break
							}
						}
					}
				}
			})
		}()
	}
	wg.Wait()

	res := &ExploreResult{}
	last := roots - 1
	if rmin := int(minViol.Load()); rmin < roots {
		last = rmin
		res.Violation = results[rmin].violation
		res.Schedule = results[rmin].schedule
	}
	for r := 0; r <= last; r++ {
		res.Executions += results[r].executions
	}
	return res
}

// ReplayViolation re-executes a violating schedule and returns its outcome
// (for debugging reports). maxSteps must be the bound the schedule was
// explored under (0 meaning DefaultMaxSteps), or a cutoff schedule cannot
// replay. The error is non-nil when the schedule failed to replay — a
// decision targeted a process that was not enabled, or the schedule ran
// out with processes still running — which happens when the schedule is
// stale (a different program, or a non-deterministic factory); the
// returned Outcome is then the truncated run's and must not be trusted.
func ReplayViolation(factory func() *Run, schedule []Decision, maxSteps int) (*Outcome, error) {
	pol := &FixedPolicy{Schedule: schedule}
	out, stopped := executeInternal(factory(), pol, maxSteps)
	if pol.Skipped > 0 {
		return out, fmt.Errorf("shm: replay diverged: %d of %d scheduled decisions targeted non-enabled processes", pol.Skipped, len(schedule))
	}
	if stopped != nil {
		return out, fmt.Errorf("shm: replay incomplete: schedule exhausted with processes %v still running", stopped)
	}
	return out, nil
}
