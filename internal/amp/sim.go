package amp

import (
	"fmt"
	"math/rand"
)

// Sim is the deterministic virtual-time simulator of AMPn,t[∅]. All state
// changes happen inside Run's event loop; the test driver injects work via
// Schedule closures (virtual "clients") and inspects processes afterwards.
//
// The event queue is a calendar queue (see calQueue): near-future events
// live in per-tick ring buckets and far-future events in a small overflow
// heap, so the hot path — deliveries a few Δ ahead — costs an append and
// an array read instead of two O(log n) heap fix-ups, and all deliveries
// sharing a timestamp drain from one bucket as a batch. Event records are
// pooled and reused across deliveries, so a quiescent-state simulation
// allocates nothing per message. Events leave the queue in (time,
// sequence-number) order.
//
// Network faults are Adversaries (adversary.go); process faults are the
// CrashAt/KillAt/RecoverAt/CrashAfterSends calls and ClockRate windows.
// A crash window is a pause: timers that come due in it fire at
// RecoverAt, as a SIGSTOP'd daemon's do on SIGCONT, and the process's
// own self-sends are delivered then (other processes' messages stay
// lost).
// KillAt + Replace is the amnesia path.
type Sim struct {
	n     int
	procs []Process
	ctxs  []*simCtx
	delay DelayModel
	rng   *rand.Rand
	seq   uint64
	now   Time

	q    calQueue
	pool []*event

	advs []Adversary

	crashed    []bool
	killed     []bool // crashed by KillAt: RecoverAt does not revive it, Replace does
	halted     []bool
	epoch      []int          // incarnation counter per pid; stale-epoch timers are dropped
	parked     [][]*event     // per pid, timers and self-sends that came due while it was crashed, in due order
	sendBudget []int          // -1 = unlimited; otherwise remaining sends before crash
	rates      [][]rateWindow // per pid, its clock-rate windows in time order
	delivered  int
	sent       int
	dropped    int
	inited     bool
}

// SimOption configures a simulator.
type SimOption func(*Sim)

// WithDelay sets the delay model (default FixedDelay{1}).
func WithDelay(d DelayModel) SimOption {
	return func(s *Sim) { s.delay = d }
}

// WithSeed seeds the simulator's deterministic randomness (delays and
// per-process Rand sources derive from it). Default seed 1.
func WithSeed(seed int64) SimOption {
	return func(s *Sim) { s.rng = newRand(seed) }
}

// NewSim builds a simulator over the given processes (procs[i] is process
// i). Init runs at virtual time 0 on the first Run call.
func NewSim(procs []Process, opts ...SimOption) *Sim {
	n := len(procs)
	s := &Sim{
		n:          n,
		procs:      procs,
		delay:      FixedDelay{D: 1},
		rng:        newRand(1),
		crashed:    make([]bool, n),
		killed:     make([]bool, n),
		halted:     make([]bool, n),
		epoch:      make([]int, n),
		parked:     make([][]*event, n),
		sendBudget: make([]int, n),
		rates:      make([][]rateWindow, n),
	}
	for i := range s.sendBudget {
		s.sendBudget[i] = -1
	}
	for _, o := range opts {
		o(s)
	}
	s.q.init()
	s.ctxs = make([]*simCtx, n)
	block := make([]simCtx, n)
	for i := 0; i < n; i++ {
		// The per-process rand seed is drawn eagerly (so the root stream is
		// consumed identically whether or not a process ever calls Rand) but
		// the ~5KB rand.Rand itself is built lazily on first use: most
		// protocols never touch it, and at n in the thousands the eager
		// sources were the dominant allocation.
		block[i] = simCtx{sim: s, id: i, seed: s.rng.Int63()}
		s.ctxs[i] = &block[i]
	}
	return s
}

// initOnce runs Init on every process at virtual time 0, once, before the
// first event is processed. Deferring Init to Run (rather than NewSim)
// lets crash injection configured between NewSim and Run — in particular
// CrashAfterSends(pid, 0), "crash before sending anything" — truncate
// Init-time broadcasts.
func (s *Sim) initOnce() {
	if s.inited {
		return
	}
	s.inited = true
	for i, p := range s.procs {
		if !s.crashed[i] {
			p.Init(s.ctxs[i])
		}
	}
}

// event kinds.
type eventKind int

const (
	evDeliver eventKind = iota + 1
	evTimer
	evClosure
	evCrash
	evKill
	evRecover
)

type event struct {
	at   Time
	seq  uint64 // tie-break for determinism
	kind eventKind
	to   int
	from int
	msg  Message
	tid  int
	ep   int    // timer events: incarnation that armed the timer
	fn   func() // closures, and After's timers instead of OnTimer
}

// newEvent takes a record from the pool (or allocates one) — the pool is
// what keeps steady-state simulation allocation-free.
func (s *Sim) newEvent() *event {
	if n := len(s.pool); n > 0 {
		e := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return e
	}
	return &event{}
}

// freeEvent clears payload references and returns the record to the pool.
func (s *Sim) freeEvent(e *event) {
	*e = event{}
	s.pool = append(s.pool, e)
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	s.q.push(e)
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// N returns the number of processes.
func (s *Sim) N() int { return s.n }

// MessagesSent and MessagesDelivered report network statistics.
func (s *Sim) MessagesSent() int { return s.sent }

// MessagesDelivered reports how many messages reached a live process.
func (s *Sim) MessagesDelivered() int { return s.delivered }

// MessagesDropped reports how many sent messages were lost: dropped by an
// adversary (or drop rule) at send time, or discarded at delivery because
// the destination was crashed or halted (a paused process's self-send
// counts here until its recovery delivers it). At quiescence,
// sent == delivered + dropped; during a bounded Run the difference is the
// in-flight count.
func (s *Sim) MessagesDropped() int { return s.dropped }

// QueuedEvents reports how many events are pending (in-flight messages,
// armed timers, scheduled closures and crash/recovery injections); the
// timers and self-sends a crash window parked are not queued until
// RecoverAt.
func (s *Sim) QueuedEvents() int { return s.q.len() }

// Schedule runs fn at virtual time at (>= now) inside the event loop —
// the mechanism for test drivers ("clients") to invoke protocol
// operations at chosen times. It belongs to no process (see After).
func (s *Sim) Schedule(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	e := s.newEvent()
	e.at, e.kind, e.fn = at, evClosure, fn
	s.push(e)
}

// After runs fn d time units from now as a timer of pid: like one armed
// with SetTimer, it waits out a crash window and dies with its
// incarnation (KillAt, Replace) or a halt. Hosts defer work on a
// process's behalf with it.
func (s *Sim) After(pid int, d Time, fn func()) {
	validatePID(pid, s.n)
	s.timer(pid, d, 0, fn)
}

// timer arms a timer of pid's current incarnation, d >= 1 from now on
// pid's own clock.
func (s *Sim) timer(pid int, d Time, id int, fn func()) {
	e := s.newEvent()
	e.at, e.kind, e.to, e.tid, e.ep, e.fn = s.due(pid, max(d, 1)), evTimer, pid, id, s.epoch[pid], fn
	s.push(e)
}

// rateWindow runs a process's clock at (100+pct)% of global time
// during [from, until).
type rateWindow struct {
	from, until Time
	pct         int
}

// ClockRate makes pid's clock run at (100+pct)% of global time during
// [from, until): its Now() and the timers it arms (SetTimer, After)
// count its own ticks, so pct = -10 is a clock that loses one tick in
// ten and pct = 10 one that gains one. The local clock is continuous at
// the window's edges and keeps, after the window, the offset the window
// built up. This is the real-clock fault a lease margin must cover:
// every process times its grants on its own clock, and the Sim's
// processes otherwise share one. Call it before Run; pct must exceed
// -100 and pid's windows must not overlap.
func (s *Sim) ClockRate(pid int, from, until Time, pct int) {
	validatePID(pid, s.n)
	if pct <= -100 || until <= from {
		panic(fmt.Sprintf("amp: clock rate window [%d,%d) at %d%% is empty or stops the clock", from, until, 100+pct))
	}
	ws := s.rates[pid]
	i := 0
	for i < len(ws) && ws[i].from < from {
		i++
	}
	if (i > 0 && ws[i-1].until > from) || (i < len(ws) && ws[i].from < until) {
		panic(fmt.Sprintf("amp: clock rate window [%d,%d) overlaps another of p%d", from, until, pid))
	}
	s.rates[pid] = append(ws[:i], append([]rateWindow{{from, until, pct}}, ws[i:]...)...)
}

// local is pid's clock reading at global time g: g plus what each of
// its rate windows gained or lost up to g.
func (s *Sim) local(pid int, g Time) Time {
	l := g
	for _, w := range s.rates[pid] {
		if g <= w.from {
			break
		}
		span := min(g, w.until) - w.from
		gain := span * Time(w.pct)
		if gain < 0 {
			gain -= 99 // round toward -inf, so the clock never runs backwards
		}
		l += gain / 100
	}
	return l
}

// due is the global time at which pid's clock has advanced d >= 1 ticks
// from now: the first g > now with local(g) >= local(now) + d.
func (s *Sim) due(pid int, d Time) Time {
	if len(s.rates[pid]) == 0 {
		return s.now + d
	}
	want := s.local(pid, s.now) + d
	lo, hi := s.now, s.now+d // local(lo) < want
	for s.local(pid, hi) < want {
		lo, hi = hi, s.now+2*(hi-s.now)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; s.local(pid, mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// CrashAt schedules a crash of pid at virtual time at: from then on it
// neither sends nor receives (messages in flight to it are dropped at
// delivery) and its timers wait. Without a RecoverAt that is the paper's
// crash, a premature halt (§2.4).
func (s *Sim) CrashAt(pid int, at Time) { s.procEvent(pid, at, evCrash) }

// KillAt schedules a kill of pid at virtual time at: a crash that no
// RecoverAt undoes, only a Replace — the kill -9 of an incarnation whose
// successor boots from its journal. A crash-recovery window that closes
// in between must not resume the dead incarnation.
func (s *Sim) KillAt(pid int, at Time) { s.procEvent(pid, at, evKill) }

// RecoverAt schedules a recovery of pid at virtual time at: if it is
// crashed (not killed) then, it resumes where it paused: the self-sends
// that arrived meanwhile are delivered first, in the recovery's own
// event, then the timers that came due fire, in due order; the other
// processes' messages stay lost.
// A send budget exhausted by CrashAfterSends is reset to unlimited.
func (s *Sim) RecoverAt(pid int, at Time) { s.procEvent(pid, at, evRecover) }

// procEvent schedules a crash, kill or recovery of pid at virtual time
// at (>= now).
func (s *Sim) procEvent(pid int, at Time, kind eventKind) {
	validatePID(pid, s.n)
	if at < s.now {
		at = s.now
	}
	e := s.newEvent()
	e.at, e.kind, e.to = at, kind, pid
	s.push(e)
}

// CrashAfterSends lets pid send k more messages and then crashes it at the
// (k+1)-th send attempt — the "crash in the middle of a broadcast" of
// §5.1's reliable-broadcast motivation: only a prefix of destinations
// receive the message.
func (s *Sim) CrashAfterSends(pid int, k int) {
	validatePID(pid, s.n)
	s.sendBudget[pid] = k
}

// Crashed reports whether pid has crashed.
func (s *Sim) Crashed(pid int) bool {
	validatePID(pid, s.n)
	return s.crashed[pid]
}

// Replace boots a NEW process at pid: the old incarnation's state is
// abandoned (its armed timers are invalidated — they belong to a dead
// process), pid is un-crashed if it was down, and p.Init runs
// immediately. This is the simulation analogue of a kill -9 restart
// from a journal: kill the pid (KillAt), rebuild a process from the
// recovered state, then Replace it. Call it inside the event loop (a Schedule
// closure) or before Run. Messages already in flight to pid are
// delivered to the new incarnation — the network does not know the
// process restarted — which is exactly the duplicate/straggler traffic
// the protocols must dedup anyway.
func (s *Sim) Replace(pid int, p Process) {
	validatePID(pid, s.n)
	s.epoch[pid]++
	s.parked[pid] = nil
	s.procs[pid] = p
	s.crashed[pid] = false
	s.killed[pid] = false
	s.halted[pid] = false
	if s.sendBudget[pid] == 0 {
		s.sendBudget[pid] = -1
	}
	if s.inited {
		p.Init(s.ctxs[pid])
	}
}

// Run processes events until the queue is empty or virtual time would
// exceed until (0 = run to quiescence). It returns the number of events
// processed.
func (s *Sim) Run(until Time) int {
	s.initOnce()
	processed := 0
	for {
		e := s.q.pop(until)
		if e == nil {
			break
		}
		s.now = e.at
		processed++
		switch e.kind {
		case evDeliver:
			switch {
			case e.from == e.to && s.crashed[e.to] && !s.killed[e.to] && !s.halted[e.to]:
				// A paused process keeps its own self-sends, as a daemon's
				// Runtime does (it handles them in the sending turn): they
				// wait for the recovery, counted dropped until then.
				s.dropped++
				s.parked[e.to] = append(s.parked[e.to], e)
				continue
			case s.crashed[e.to] || s.halted[e.to]:
				s.dropped++
			default:
				s.delivered++
				s.procs[e.to].OnMessage(s.ctxs[e.to], e.from, e.msg)
			}
		case evTimer:
			// A timer armed by a replaced incarnation must not fire into
			// its successor: Replace bumps the pid's epoch, and the stale
			// event is discarded here. A paused process's timer waits.
			switch {
			case s.halted[e.to] || s.killed[e.to] || e.ep != s.epoch[e.to]:
			case s.crashed[e.to]:
				s.parked[e.to] = append(s.parked[e.to], e)
				continue
			case e.fn != nil:
				e.fn()
			default:
				s.procs[e.to].OnTimer(s.ctxs[e.to], e.tid)
			}
		case evClosure:
			e.fn()
		case evCrash:
			s.crashed[e.to] = true
		case evKill:
			s.crashed[e.to], s.killed[e.to] = true, true
		case evRecover:
			if s.crashed[e.to] && !s.killed[e.to] {
				s.crashed[e.to] = false
				if s.sendBudget[e.to] == 0 {
					s.sendBudget[e.to] = -1
				}
				for _, t := range s.parked[e.to] {
					if t.kind == evTimer {
						t.at = s.now
						s.push(t)
					}
				}
				// The self-sends go first, before anything else due now: a
				// daemon had handled them before it was stopped. Each record
				// is freed after its delivery, which may take it for a new
				// event, so nothing walks the list again.
				for _, t := range s.parked[e.to] {
					if t.kind != evDeliver {
						continue
					}
					if !s.halted[e.to] {
						s.dropped--
						s.delivered++
						s.procs[e.to].OnMessage(s.ctxs[e.to], t.from, t.msg)
					}
					s.freeEvent(t)
				}
				s.parked[e.to] = s.parked[e.to][:0]
			}
		default:
			panic(fmt.Sprintf("amp: unknown event kind %d", e.kind))
		}
		s.freeEvent(e)
	}
	return processed
}

// send is the internal path used by contexts.
func (s *Sim) send(src, dst int, msg Message) {
	validatePID(dst, s.n)
	if s.crashed[src] {
		return
	}
	if s.sendBudget[src] == 0 {
		// Crash triggered mid-send-sequence.
		s.crashed[src] = true
		return
	}
	if s.sendBudget[src] > 0 {
		s.sendBudget[src]--
	}
	s.sent++
	var skew Time
	for _, a := range s.advs {
		v := a.Judge(src, dst, s.now)
		if v.Drop {
			s.dropped++
			return
		}
		skew += v.Skew
	}
	d := s.delay.Delay(src, dst, s.now, s.rng)
	if d < 1 {
		d = 1
	}
	if d += skew; d < 1 {
		d = 1
	}
	e := s.newEvent()
	e.at, e.kind, e.to, e.from, e.msg = s.now+d, evDeliver, dst, src, msg
	s.push(e)
}

// simCtx implements Context for one process.
type simCtx struct {
	sim  *Sim
	id   int
	seed int64
	rng  *rand.Rand
}

func (c *simCtx) ID() int   { return c.id }
func (c *simCtx) N() int    { return c.sim.n }
func (c *simCtx) Now() Time { return c.sim.local(c.id, c.sim.now) }

func (c *simCtx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = newRand(c.seed)
	}
	return c.rng
}

func (c *simCtx) Halt() { c.sim.halted[c.id] = true }

func (c *simCtx) Send(to int, msg Message) { c.sim.send(c.id, to, msg) }

func (c *simCtx) Broadcast(msg Message) {
	for i := 0; i < c.sim.n; i++ {
		c.sim.send(c.id, i, msg)
	}
}

func (c *simCtx) SetTimer(d Time, id int) { c.sim.timer(c.id, d, id, nil) }
