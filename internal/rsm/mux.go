package rsm

import (
	"distbasics/internal/amp"
	"distbasics/internal/fd"
	"distbasics/internal/mpcons"
)

// synodMux hosts the unbounded sequence of per-slot Synod instances
// behind one amp.Component position, replacing the old fixed 64-entry
// instance array (the DefaultMaxSlots cap, which silently stopped all
// agreement after 64 slots). Instances are materialized lazily — when
// the local proposer opens a slot in its pipeline window, or when a
// ballot message for the slot first arrives — and garbage-collected once
// the slot's decision has been delivered, so live instance count tracks
// the pipeline span rather than the history length.
type synodMux struct {
	tb      *TOBroadcast
	omega   *fd.Detector
	journal Journal

	pipeline int
	pace     amp.Time // least spacing between turns that start first ballots
	paced    bool     // a start is younger than that (see ensureWindow)

	ctx    amp.Context
	insts  map[int]*mpcons.Synod
	slotCx map[int]*muxCtx

	// learnLast rate-limits muxLearn answers per peer (see OnMessage).
	learnLast map[int]amp.Time

	// gcFloor: slots below it are delivered and their instances freed.
	gcFloor int

	// restoreAcc holds journaled acceptor triples awaiting their slot's
	// (lazy) instance creation. Applying the triple at creation, before
	// any message is routed, preserves the Paxos crash-safety invariant.
	restoreAcc map[int]Acceptor
}

// muxMsg envelopes a Synod message with its slot number (the second
// level of namespacing under amp's compMsg).
type muxMsg struct {
	Slot  int
	Inner amp.Message
}

// muxLearn short-circuits ballots aimed at an already-decided slot: a
// replica holding the decision answers the ballot message with the
// outcome instead of re-running consensus through a resurrected
// instance.
type muxLearn struct {
	Slot  int
	Batch batch
}

const (
	// muxTickTimer and muxPaceTimer are the mux's own timer ids; per-slot
	// timers are offset past them with muxTimerStride ids per slot.
	muxTickTimer   = 0
	muxPaceTimer   = 1
	muxTickPeriod  = 16
	muxTimerStride = 4

	// muxMaxAhead caps how far past the local decide frontier a remote
	// ballot message may materialize an instance. A correct leader's
	// window sits within pipeline of the global frontier, which local
	// anti-entropy tracks, so the cap only drops traffic that could
	// otherwise grow the instance map without bound.
	muxMaxAhead = 4096

	// muxLearnGap is the per-peer minimum spacing between muxLearn
	// answers to straggler ballot messages for decided slots.
	muxLearnGap = 8
)

func newSynodMux(tb *TOBroadcast, omega *fd.Detector, j Journal, pipeline int, pace amp.Time) *synodMux {
	return &synodMux{
		pace:       pace,
		tb:         tb,
		omega:      omega,
		journal:    j,
		pipeline:   pipeline,
		insts:      make(map[int]*mpcons.Synod),
		slotCx:     make(map[int]*muxCtx),
		learnLast:  make(map[int]amp.Time),
		restoreAcc: make(map[int]Acceptor),
	}
}

// restoreAcceptor stages a journaled acceptor triple for slot; it is
// applied if and when the slot's instance materializes. Called during
// NewNode recovery wiring, before the runtime starts.
func (mx *synodMux) restoreAcceptor(slot int, a Acceptor) {
	mx.restoreAcc[slot] = a
}

// acceptorSnapshot collects the acceptor triples snapshot capture must
// preserve: every staged-but-unmaterialized restore and every live
// instance with non-pristine acceptor state, for slots at or above
// floor (the delivery frontier — triples below it are already
// forgotten by gc, with muxLearn answering stragglers).
func (mx *synodMux) acceptorSnapshot(floor int) map[int]Acceptor {
	out := make(map[int]Acceptor)
	for s, a := range mx.restoreAcc {
		if s >= floor {
			out[s] = a
		}
	}
	for s, syn := range mx.insts {
		if s < floor {
			continue
		}
		p, ab, av := syn.AcceptorState()
		if p == 0 && ab == 0 && av == nil {
			continue // pristine: nothing promised or accepted yet
		}
		out[s] = Acceptor{Promised: p, AcceptedBal: ab, AcceptedVal: av}
	}
	return out
}

// Init implements amp.Component. Runs after the TO component's Init
// (stack order), so recovery replay has already advanced the frontiers.
func (mx *synodMux) Init(ctx amp.Context) {
	mx.ctx = ctx
	mx.gcFloor = mx.tb.nextDeliver
	mx.gc()
	mx.ensureWindow()
	ctx.SetTimer(muxTickPeriod, muxTickTimer)
}

// slotTimer encodes per-slot timer ids past the mux's own.
func slotTimer(slot, tid int) int       { return 2 + slot*muxTimerStride + tid }
func decodeSlotTimer(id int) (s, t int) { return (id - 2) / muxTimerStride, (id - 2) % muxTimerStride }

// muxCtx namespaces one slot's Synod: sends wrap in muxMsg, timers in
// the slot-strided id space. The Synod never notices it shares a
// component position with every other slot.
type muxCtx struct {
	amp.Context
	slot int
}

func (c *muxCtx) Send(to int, msg amp.Message) {
	c.Context.Send(to, muxMsg{Slot: c.slot, Inner: msg})
}

func (c *muxCtx) Broadcast(msg amp.Message) {
	c.Context.Broadcast(muxMsg{Slot: c.slot, Inner: msg})
}

func (c *muxCtx) SetTimer(d amp.Time, id int) {
	c.Context.SetTimer(d, slotTimer(c.slot, id))
}

// instance returns slot s's Synod, materializing it if needed (and
// allowed): never for delivered slots, never unboundedly far ahead.
func (mx *synodMux) instance(s int) *mpcons.Synod {
	if syn, ok := mx.insts[s]; ok {
		return syn
	}
	if s < mx.gcFloor || s > mx.tb.nextDecide+muxMaxAhead {
		return nil
	}
	slot := s // capture per-instance
	syn := &mpcons.Synod{
		Omega:       mx.omega,
		LeaseHolder: mx.omega.GrantHolder,
		InputFn:     func() any { return mx.tb.proposalFor(slot) },
		Enabled: func() bool {
			// Pipeline window: slots [nextDecide, nextDecide+pipeline)
			// may run ballots concurrently. A leader opens slot s either
			// because the unscheduled backlog reaches s's portion of the
			// window (so its ballot would carry new commands, not repeat
			// an earlier slot's batch), or to fill a gap below a known
			// later decision (maxSeen > s) — without the gap fill,
			// out-of-order decisions would strand delivery forever.
			return slot >= mx.tb.nextDecide &&
				slot < mx.tb.nextDecide+mx.pipeline &&
				(mx.tb.backlogReaches(slot) || mx.tb.maxSeen > slot)
		},
		OnDecide: func(v any, at amp.Time) { mx.onDecide(slot, v, at) },
	}
	if mx.journal != nil {
		j := mx.journal
		syn.OnAcceptorChange = func(promised, acceptedBal int, acceptedVal any) {
			j.SaveAccept(slot, Acceptor{Promised: promised, AcceptedBal: acceptedBal, AcceptedVal: acceptedVal})
		}
	}
	if a, ok := mx.restoreAcc[s]; ok {
		syn.RestoreAcceptor(a.Promised, a.AcceptedBal, a.AcceptedVal)
		delete(mx.restoreAcc, s)
	}
	cx := &muxCtx{Context: mx.ctx, slot: s}
	syn.Init(cx)
	mx.insts[s] = syn
	mx.slotCx[s] = cx
	return syn
}

// onDecide is every slot's decision callback, and muxLearn's: persist
// (write-ahead, before any effect), deliver through the TO layer, free
// instances the delivery frontier passed, and open the slots the window
// now reaches.
func (mx *synodMux) onDecide(slot int, v any, at amp.Time) {
	if mx.tb.isDecided(slot) {
		return
	}
	if mx.journal != nil {
		b, _ := v.(batch)
		mx.journal.SaveDecide(slot, b)
	}
	mx.tb.onSlotDecide(slot, v, at)
	mx.gc()
	mx.ensureWindow()
}

// ensureWindow materializes proposer-side instances for the current
// pipeline window when there is (or may be) work for them, and kicks
// each one: on the leader a slot's first ballot starts in this very
// turn, not a timer tick later — the proposal is still built at phase 2,
// so commands submitted later in the turn ride the same slot. Called on
// new payloads, after every decision, when Ω changes leader, and from
// the tick timer as a liveness backstop. Turns that start ballots are
// at least pace apart (default 1): work reaching the leader sooner
// shares the slots the pace timer opens.
func (mx *synodMux) ensureWindow() {
	if mx.ctx == nil {
		return // pre-Init (recovery replay); Init will call back
	}
	started := false
	for s := mx.tb.nextDecide; s < mx.tb.nextDecide+mx.pipeline; s++ {
		if mx.tb.isDecided(s) {
			continue
		}
		if mx.tb.backlogReaches(s) || mx.tb.maxSeen > s {
			if syn := mx.instance(s); syn != nil && !mx.paced && syn.Kick(mx.slotCx[s]) {
				started = true
			}
		}
	}
	if started {
		mx.paced = true
		mx.ctx.SetTimer(mx.pace, muxPaceTimer)
	}
}

// gc frees instances for delivered slots. The acceptor triple for a
// freed slot is no longer needed: the decision is journaled and served
// by anti-entropy, and muxLearn answers any straggler ballots.
func (mx *synodMux) gc() {
	target := mx.tb.nextDeliver
	if target-mx.gcFloor > len(mx.insts)+len(mx.restoreAcc) {
		// Frontier jumped far past the live set (recovery replay):
		// sweep the maps instead of walking every slot in between.
		for s, syn := range mx.insts {
			if s < target {
				syn.Release()
				delete(mx.insts, s)
				delete(mx.slotCx, s)
			}
		}
		for s := range mx.restoreAcc {
			if s < target {
				delete(mx.restoreAcc, s)
			}
		}
		mx.gcFloor = target
		return
	}
	for mx.gcFloor < target {
		s := mx.gcFloor
		if syn, ok := mx.insts[s]; ok {
			syn.Release()
			delete(mx.insts, s)
			delete(mx.slotCx, s)
		}
		delete(mx.restoreAcc, s)
		mx.gcFloor++
	}
}

// OnMessage implements amp.Component: route each ballot message to its
// slot's instance, answering messages for already-decided slots with
// the outcome instead.
func (mx *synodMux) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	switch m := msg.(type) {
	case muxMsg:
		if mx.tb.isDecided(m.Slot) {
			// Answer stragglers with the outcome, but at most once per
			// peer per muxLearnGap: chaos-duplicated ballot messages for
			// an old slot must not amplify into a full-batch reply each.
			if b, ok := mx.tb.decided[m.Slot]; ok {
				now := ctx.Now()
				if last, ok := mx.learnLast[from]; !ok || now-last >= muxLearnGap {
					mx.learnLast[from] = now
					ctx.Send(from, muxLearn{Slot: m.Slot, Batch: b})
				}
			}
			return
		}
		syn := mx.instance(m.Slot)
		if syn == nil {
			return // beyond the window cap; anti-entropy will catch us up
		}
		syn.OnMessage(mx.slotCx[m.Slot], from, m.Inner)
	case muxLearn:
		mx.onDecide(m.Slot, m.Batch, ctx.Now())
	}
}

// OnTimer implements amp.Component: the mux tick re-opens the window (a
// liveness backstop if every event-driven poke raced a condition), and
// slot timers route to their instance — or die silently if the slot was
// delivered and freed.
func (mx *synodMux) OnTimer(ctx amp.Context, id int) {
	if id == muxPaceTimer {
		mx.paced = false
		mx.ensureWindow()
		return
	}
	if id == muxTickTimer {
		mx.ensureWindow()
		ctx.SetTimer(muxTickPeriod, muxTickTimer)
		return
	}
	s, tid := decodeSlotTimer(id)
	if syn, ok := mx.insts[s]; ok {
		syn.OnTimer(mx.slotCx[s], tid)
	}
}
