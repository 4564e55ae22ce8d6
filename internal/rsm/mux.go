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
// the local proposer opens the head slot, or when a ballot message for
// a slot first arrives — and garbage-collected once the slot's decision
// has been delivered, so the live instance count stays at about one
// rather than tracking the history length.
type synodMux struct {
	tb      *TOBroadcast
	omega   *fd.Detector
	journal Journal

	pace  amp.Time // least spacing between turns that start first ballots
	paced bool     // a start is younger than that (see ensureWindow)

	ctx    amp.Context
	insts  map[int]*mpcons.Synod
	slotCx map[int]*muxCtx

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

const (
	// muxPaceTimer is the mux's own timer id; per-slot timers are offset
	// past it with muxTimerStride ids per slot.
	muxPaceTimer   = 0
	muxTimerStride = 4

	// muxMaxAhead caps how far past the local decide frontier a remote
	// ballot message may materialize an instance. A correct leader
	// ballots only at the head of the global frontier, which local
	// anti-entropy tracks, so the cap only drops traffic that could
	// otherwise grow the instance map without bound.
	muxMaxAhead = 4096
)

func newSynodMux(tb *TOBroadcast, omega *fd.Detector, j Journal, pace amp.Time) *synodMux {
	return &synodMux{
		pace:       pace,
		tb:         tb,
		omega:      omega,
		journal:    j,
		insts:      make(map[int]*mpcons.Synod),
		slotCx:     make(map[int]*muxCtx),
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
// forgotten by gc, and a ballot for such a slot is answered with the
// decision).
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
	mx.gc()
	mx.ensureWindow()
}

// slotTimer encodes per-slot timer ids past the mux's own.
func slotTimer(slot, tid int) int       { return 1 + slot*muxTimerStride + tid }
func decodeSlotTimer(id int) (s, t int) { return (id - 1) / muxTimerStride, (id - 1) % muxTimerStride }

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
// allowed): callers never ask for a decided slot, and it is never
// materialized unboundedly far ahead.
func (mx *synodMux) instance(s int) *mpcons.Synod {
	if syn, ok := mx.insts[s]; ok {
		return syn
	}
	if s > mx.tb.nextDecide+muxMaxAhead {
		return nil
	}
	slot := s // capture per-instance
	syn := &mpcons.Synod{
		Omega:       mx.omega,
		LeaseHolder: mx.omega.GrantHolder,
		InputFn:     mx.tb.proposal,
		Enabled:     func() bool { return mx.tb.wantsBallot(slot) },
		OnDecide:    func(v any, at amp.Time) { mx.onDecide(slot, v, at) },
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

// onDecide is where every learned decision enters — a slot's Synod
// decide and an anti-entropy answer alike: persist (write-ahead, before
// any effect), deliver through the TO layer, free instances the
// delivery frontier passed, and reopen the window.
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

// ensureWindow materializes the head slot's instance — the first
// undecided slot — when there is work for it or a gap to fill, and
// kicks it: on the leader the slot's first ballot starts in this very
// turn, not a timer tick later — the proposal is still built at phase 2,
// so commands submitted later in the turn ride the same slot. Called on
// new payloads, after every decision, when Ω changes leader, and on a
// peer's frontier gossip. Turns that start ballots are at least pace
// apart (default 1): work reaching the leader sooner shares the slot
// the pace timer opens.
func (mx *synodMux) ensureWindow() {
	s := mx.tb.nextDecide
	if mx.ctx == nil || !mx.tb.wantsBallot(s) {
		return // pre-Init (recovery replay; Init calls back) or nothing to order
	}
	if syn := mx.instance(s); syn != nil && !mx.paced && syn.Kick(mx.slotCx[s]) {
		mx.paced = true
		mx.ctx.SetTimer(mx.pace, muxPaceTimer)
	}
}

// gc frees instances for delivered slots. The acceptor triple for a
// freed slot is no longer needed: the decision is journaled, and a
// ballot for the slot is answered with it (see OnMessage).
func (mx *synodMux) gc() {
	floor := mx.tb.nextDeliver
	for s, syn := range mx.insts {
		if s < floor {
			syn.Release()
			delete(mx.insts, s)
			delete(mx.slotCx, s)
		}
	}
	for s := range mx.restoreAcc {
		if s < floor {
			delete(mx.restoreAcc, s)
		}
	}
}

// OnMessage implements amp.Component: route each ballot message to its
// slot's instance. A ballot for an already-decided slot is answered the
// way a fetch is — its proposer is a replica that missed the decision —
// and a late reply or decide for one is dropped.
func (mx *synodMux) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	m, ok := msg.(muxMsg)
	if !ok {
		return
	}
	if mx.tb.isDecided(m.Slot) {
		if mpcons.IsBallot(m.Inner) {
			mx.tb.answerFetch(mx.tb.ctx, from, m.Slot)
		}
		return
	}
	syn := mx.instance(m.Slot)
	if syn == nil {
		return // beyond the window cap; anti-entropy will catch us up
	}
	syn.OnMessage(mx.slotCx[m.Slot], from, m.Inner)
}

// OnTimer implements amp.Component: the pace timer re-opens the window,
// and slot timers route to their instance — or die silently if the slot
// was delivered and freed.
func (mx *synodMux) OnTimer(ctx amp.Context, id int) {
	if id == muxPaceTimer {
		mx.paced = false
		mx.ensureWindow()
		return
	}
	s, tid := decodeSlotTimer(id)
	if syn, ok := mx.insts[s]; ok {
		syn.OnTimer(mx.slotCx[s], tid)
	}
}
