// Package rsm implements universality in AMPn,t[t < n/2] (§5.1 of the
// paper): total-order (TO) reliable broadcast built on consensus, and a
// replicated state machine (Lamport's "how to duplicate a state machine",
// [41]) on top of it. All replicas apply the same operation sequence to
// their local copies, ensuring mutual consistency — and since TO-broadcast
// requires consensus, it inherits consensus's impossibility in
// AMPn,t[t > 0] without an oracle; here the oracle is Ω.
//
// Dissemination and ordering are separate layers: a payload goes from its
// originator to every replica once (n frames, not n²), the leader orders
// what it holds, and a decided batch carries its payloads. A payload
// still unordered a sync period after it was sent is sent again: by its
// originator every period until a decision schedules it, by another
// holder once. A replica that has delivered such a copy answers with its
// decide frontier. Only the leader broadcasts a decision; a replica that
// missed one fetches it.
//
// Consensus slots are allocated lazily and garbage-collected: a replica
// group runs an unbounded sequence of Synod instances, materializing one
// only when a slot first sees traffic (a ballot message, or the local
// proposer opening it) and freeing it once its decision has been
// delivered. One slot is open at a time — the first undecided one — and
// the proposer batches up to MaxBatch pending commands into it; a slot
// decided at a peer fills a gap below it. A replica that missed a
// decision learns it one way: a peer answers its fetch, or its ballot
// for the slot, with the decided batch.
package rsm

import (
	"errors"
	"log"
	"sort"

	"distbasics/internal/amp"
	"distbasics/internal/fd"
	"distbasics/internal/rbcast"
)

// Entry is one totally-ordered application message.
type Entry struct {
	ID      rbcast.MsgID
	Payload any
}

// batch is the value agreed per consensus slot: a sorted set of entries.
type batch []Entry

// DeliverFn is the total-order delivery upcall: invoked exactly once per
// message, in the same order at every replica.
type DeliverFn func(e Entry, at amp.Time)

// TOBroadcast is the total-order reliable broadcast coordinator. It is an
// amp.Component designed to share a Stack with an fd.Detector and a
// synodMux hosting the per-slot consensus instances; use NewNode to wire
// the whole stack.
type TOBroadcast struct {
	n         int
	omega     *fd.Detector
	onDeliver DeliverFn

	nextSeq    int
	persistSeq func(next int) // journal hook, may be nil
	pending    map[rbcast.MsgID]any
	delivered  idSet
	// held and heldOld: payloads first received or sent since the last
	// sync timer and in the period before it (see relayLingering).
	held, heldOld []rbcast.MsgID
	scheduled     map[rbcast.MsgID]bool // in a decided-but-undelivered batch
	resends       int                   // own payloads re-broadcast by relayLingering

	decided      map[int]batch
	nextDecide   int // first undecided slot (gates ballot initiation)
	nextDeliver  int // first undelivered slot
	maxSeen      int // highest slot with a known decision (here or at a peer)
	compactFloor int // decided batches below this are compacted away
	maxBatch     int // proposal size cap
	unsched      int // pending entries not yet placed in a decided slot

	ctx amp.Context // this component's context, from Init
	mux *synodMux   // the slot multiplexer beside it, set by NewNode

	fetchLast map[int]amp.Time // per-peer last tbFetch answer (rate limit)
	gossiped  int              // maxSeen as of the last frontier gossip

	recovered    bool // restarted from a journal: fetch on Init
	fetchPending bool // keep re-fetching until any answer arrives

	// afterDecide runs after every slot decision (and on the sync
	// timer): the auto-compaction threshold check, set by NewNode once
	// recovery replay has finished so replay itself never compacts.
	afterDecide func()
}

// Anti-entropy messages: a replica that is (or may be) behind asks the
// others for decided slots it is missing, and peers answer slot by
// slot. It missed the leader's one decide broadcast, and learns so from a
// later decision, an answer's MaxSeen, or the frontier replicas gossip
// on their sync timers — the only sign when it missed the last one. A
// replica that ballots for a slot its peers have decided is answered the
// same way, without asking.
type (
	tbFetch   struct{ From int }
	tbDecided struct {
		Slot  int
		Batch batch
		// MaxSeen piggybacks the answerer's decide frontier, so one
		// successful answer teaches a behind replica how far behind it
		// is — the gap-driven periodic re-fetch then runs until the gap
		// closes, even if most individual answers are lost. Slot -1
		// carries only the frontier: a gossip, or an answer with no
		// retained slot to serve.
		MaxSeen int
	}
)

const (
	tbSyncTimer  = 0
	tbSyncPeriod = 64

	// tbFetchChunk caps the decided slots one tbFetch answer carries,
	// and tbFetchMinGap the per-peer answer frequency: a recovering
	// replica thousands of slots behind re-fetches every tbSyncPeriod
	// as it advances, so chunked replies still converge, but no peer
	// can be made to emit an unbounded reply storm from one request.
	tbFetchChunk  = 64
	tbFetchMinGap = tbSyncPeriod / 2
)

// toPayload disseminates an application message to all replicas' pending
// sets: sent by its originator to everybody, and sent again only if it
// lingers unordered (relayLingering), then with Lingered set.
type toPayload struct {
	ID       rbcast.MsgID
	Payload  any
	Lingered bool
}

// newTOBroadcast is internal; NewNode wires it with its synod mux.
func newTOBroadcast(n int, omega *fd.Detector, onDeliver DeliverFn) *TOBroadcast {
	return &TOBroadcast{
		n:         n,
		omega:     omega,
		onDeliver: onDeliver,
		pending:   make(map[rbcast.MsgID]any),
		delivered: newIDSet(n),
		scheduled: make(map[rbcast.MsgID]bool),
		decided:   make(map[int]batch),
		fetchLast: make(map[int]amp.Time),
		maxSeen:   -1,
		gossiped:  -1,
	}
}

// Init implements amp.Component.
func (tb *TOBroadcast) Init(ctx amp.Context) {
	tb.ctx = ctx
	if tb.recovered {
		// A restarted replica may have slept through decisions; ask for
		// everything from its first undelivered slot — and keep asking on
		// the sync timer until someone answers. The first fetch is sent
		// into whatever backlog built up toward this node while it was
		// down, so it (or all its answers) can be lost; a one-shot fetch
		// here is a liveness hole, not an optimization.
		tb.fetchPending = true
		ctx.Broadcast(tbFetch{From: tb.nextDeliver})
	}
	ctx.SetTimer(tbSyncPeriod, tbSyncTimer)
}

// Broadcast TO-broadcasts payload: it will be delivered at every correct
// replica, in the same total order.
func (tb *TOBroadcast) Broadcast(ctx amp.Context, payload any) rbcast.MsgID {
	id := rbcast.MsgID{Sender: ctx.ID(), Seq: tb.nextSeq}
	tb.nextSeq++
	if tb.persistSeq != nil {
		tb.persistSeq(tb.nextSeq)
	}
	tb.pending[id] = payload
	tb.unsched++
	tb.held = append(tb.held, id)
	ctx.Broadcast(toPayload{ID: id, Payload: payload})
	tb.mux.ensureWindow()
	return id
}

// idSet is a set of message ids kept as a per-sender watermark plus
// the members above it, so ids long in the set need no map entry and
// the map stays bounded by the out-of-order span. The TO layer's
// delivered set and the apply layer's seen set are both one.
type idSet struct {
	low   []int                 // every Seq < low[sender] is a member
	above map[rbcast.MsgID]bool // members at or past their sender's watermark
}

func newIDSet(n int) idSet {
	return idSet{low: make([]int, n), above: make(map[rbcast.MsgID]bool)}
}

func (s *idSet) has(id rbcast.MsgID) bool {
	if id.Sender >= 0 && id.Sender < len(s.low) && id.Seq < s.low[id.Sender] {
		return true
	}
	return s.above[id]
}

// add inserts id and advances its sender's watermark over any
// now-contiguous prefix, dropping the map entries it subsumes.
func (s *idSet) add(id rbcast.MsgID) {
	if id.Sender < 0 || id.Sender >= len(s.low) {
		s.above[id] = true
		return
	}
	if id.Seq < s.low[id.Sender] {
		return
	}
	s.above[id] = true
	for {
		probe := rbcast.MsgID{Sender: id.Sender, Seq: s.low[id.Sender]}
		if !s.above[probe] {
			return
		}
		delete(s.above, probe)
		s.low[id.Sender]++
	}
}

// OnMessage implements amp.Component: payload dissemination plus the
// anti-entropy fetch protocol (slot agreement itself arrives via synod
// decision callbacks routed through the mux).
func (tb *TOBroadcast) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	switch m := msg.(type) {
	case toPayload:
		if tb.delivered.has(m.ID) {
			if m.Lingered && from != ctx.ID() {
				// The sender missed the decision: tell it the frontier.
				ctx.Send(from, tbDecided{Slot: -1, MaxSeen: tb.maxSeen})
			}
			return // late duplicate of an already-ordered message
		}
		if _, ok := tb.pending[m.ID]; !ok && !tb.scheduled[m.ID] {
			tb.unsched++
			tb.held = append(tb.held, m.ID)
		}
		tb.pending[m.ID] = m.Payload
		tb.mux.ensureWindow()
	case tbFetch:
		if from == ctx.ID() {
			return // our own broadcast looping back
		}
		tb.answerFetch(ctx, from, m.From)
	case tbDecided:
		if from == ctx.ID() {
			return // our own frontier gossip looping back
		}
		tb.fetchPending = false
		if m.MaxSeen > tb.maxSeen {
			tb.maxSeen = m.MaxSeen // learn how far behind we are
		}
		if m.Slot < 0 {
			tb.mux.ensureWindow() // a gap below a peer's frontier: a leader fills it
			return
		}
		tb.mux.onDecide(m.Slot, m.Batch, ctx.Now())
	}
}

// answerFetch serves one anti-entropy request — a tbFetch, or a ballot
// for a slot this replica has decided (see synodMux.OnMessage), whose
// floor is that slot — rate-limited per peer
// and chunked: at most tbFetchChunk retained slots starting at the
// requester's floor, no more often than every tbFetchMinGap ticks. A
// request we have nothing for is still acknowledged with a
// frontier-only answer, so a caught-up (or beyond-retention) fetcher
// learns it is not being ignored and stops re-asking.
func (tb *TOBroadcast) answerFetch(ctx amp.Context, from, floor int) {
	now := ctx.Now()
	if last, ok := tb.fetchLast[from]; ok && now-last < tbFetchMinGap {
		return
	}
	tb.fetchLast[from] = now
	slots := make([]int, 0, tbFetchChunk)
	for s := range tb.decided {
		if s >= floor {
			slots = append(slots, s)
		}
	}
	if len(slots) == 0 {
		ctx.Send(from, tbDecided{Slot: -1, MaxSeen: tb.maxSeen})
		return
	}
	sort.Ints(slots)
	if len(slots) > tbFetchChunk {
		slots = slots[:tbFetchChunk]
	}
	for _, s := range slots {
		ctx.Send(from, tbDecided{Slot: s, Batch: tb.decided[s], MaxSeen: tb.maxSeen})
	}
}

// OnTimer implements amp.Component: while a decided-but-undeliverable
// gap exists (a decision this replica missed), or a recovery fetch is
// still unanswered, keep asking; gossip a moved frontier; relay the
// payloads that lingered.
func (tb *TOBroadcast) OnTimer(ctx amp.Context, id int) {
	if id != tbSyncTimer {
		return
	}
	tb.relayLingering(ctx)
	if tb.maxSeen >= tb.nextDecide || tb.fetchPending { // nextDecide: the first slot missing here
		ctx.Broadcast(tbFetch{From: tb.nextDeliver})
	}
	if tb.maxSeen > tb.gossiped {
		tb.gossiped = tb.maxSeen
		ctx.Broadcast(tbDecided{Slot: -1, MaxSeen: tb.maxSeen})
	}
	if tb.afterDecide != nil {
		tb.afterDecide() // catch acceptor-churn growth between decisions
	}
	ctx.SetTimer(tbSyncPeriod, tbSyncTimer)
}

// relayLingering re-broadcasts the payloads held here for a full sync
// period with no decision scheduling them: another replica's once, this
// replica's own every period until one does. A healthy group orders a
// payload within a ballot, so nothing gets that old.
func (tb *TOBroadcast) relayLingering(ctx amp.Context) {
	for _, id := range tb.heldOld {
		if p, ok := tb.pending[id]; ok && !tb.scheduled[id] {
			ctx.Broadcast(toPayload{ID: id, Payload: p, Lingered: true})
			if id.Sender == ctx.ID() {
				tb.held = append(tb.held, id)
				tb.resends++
			}
		}
	}
	tb.heldOld, tb.held = tb.held, tb.heldOld[:0]
}

// proposal builds the head slot's batch: the first maxBatch unscheduled
// commands in deterministic (MsgID) order, or none for a gap fill.
func (tb *TOBroadcast) proposal() any {
	b := make(batch, 0, len(tb.pending))
	for id, p := range tb.pending {
		if tb.scheduled[id] {
			continue
		}
		b = append(b, Entry{ID: id, Payload: p})
	}
	sort.Slice(b, func(i, j int) bool {
		if b[i].ID.Sender != b[j].ID.Sender {
			return b[i].ID.Sender < b[j].ID.Sender
		}
		return b[i].ID.Seq < b[j].ID.Seq
	})
	if tb.maxBatch > 0 && len(b) > tb.maxBatch {
		b = b[:tb.maxBatch]
	}
	return b
}

// wantsBallot reports whether a leader should run ballots for slot: it
// is the head slot (the first undecided one), and there are unscheduled
// commands to order or a decision known above it — the gap fill,
// without which an out-of-order decision would strand delivery forever.
func (tb *TOBroadcast) wantsBallot(slot int) bool {
	return slot == tb.nextDecide && (tb.unsched > 0 || tb.maxSeen > slot)
}

// isDecided reports whether slot s has a known decision (including ones
// compacted away after delivery).
func (tb *TOBroadcast) isDecided(s int) bool {
	if s < tb.compactFloor {
		return true
	}
	_, ok := tb.decided[s]
	return ok
}

// onSlotDecide records slot s's batch and delivers ready slots in order.
func (tb *TOBroadcast) onSlotDecide(s int, v any, at amp.Time) {
	b, _ := v.(batch)
	if tb.isDecided(s) {
		return
	}
	tb.fetchPending = false // decisions are reaching us; no blind re-fetch
	tb.decided[s] = b
	for _, e := range b {
		if tb.delivered.has(e.ID) || tb.scheduled[e.ID] {
			continue
		}
		tb.scheduled[e.ID] = true
		if _, ok := tb.pending[e.ID]; ok {
			tb.unsched--
		}
	}
	if s > tb.maxSeen {
		tb.maxSeen = s
	}
	for tb.isDecided(tb.nextDecide) {
		tb.nextDecide++
	}
	for ; tb.nextDeliver < tb.nextDecide; tb.nextDeliver++ {
		for _, e := range tb.decided[tb.nextDeliver] {
			if tb.delivered.has(e.ID) {
				continue
			}
			tb.delivered.add(e.ID)
			delete(tb.pending, e.ID)
			delete(tb.scheduled, e.ID)
			if tb.onDeliver != nil {
				tb.onDeliver(e, at)
			}
		}
	}
	tb.compact()
	if tb.afterDecide != nil {
		tb.afterDecide()
	}
}

// compact drops decided batches more than DefaultRetention slots behind
// the delivery frontier. They are no longer needed locally (their entries
// are applied) and anti-entropy only serves what is retained; a replica
// further behind than every peer's retention window must be reseeded
// from its own journal.
func (tb *TOBroadcast) compact() {
	floor := tb.nextDeliver - DefaultRetention
	for tb.compactFloor < floor {
		delete(tb.decided, tb.compactFloor)
		tb.compactFloor++
	}
}

// Node is one replica of a replicated state machine: a KV store whose
// commands arrive via TO-broadcast.
type Node struct {
	Stack *amp.Stack
	TO    *TOBroadcast
	Omega *fd.Detector

	// OnApply, when set, is invoked after each entry is applied to the
	// local state — the observation point the linearizability fuzz
	// tests use as a command's completion at its submitting replica.
	OnApply func(e Entry, at amp.Time)

	mux     *synodMux
	state   map[string]any
	applied []Entry
	noLog   bool
	hooks   []func(e Entry, at amp.Time) // construction-time observers; see WithApplyHook
	seen    idSet                        // idempotency: dedup by (proposer, seq)
	applies int

	// With a read lease: when each command submitted here was submitted,
	// until it applies, and the latest such time among those applied
	// (HoldsLease's barrier; -1 before the first).
	submitted map[rbcast.MsgID]amp.Time
	barrier   amp.Time

	snapshotter  Snapshotter
	journal      *FileJournal // the journal Compact installs into; nil without a FileJournal
	compactRecs  int64
	compactBytes int64
	compactWarn  bool
}

// Command is a state-machine command.
type Command struct {
	Op  string // "put" or "del"
	Key string
	Val any
}

// Defaults for the tunables below.
const (
	DefaultRetention = 1024
	DefaultMaxBatch  = 1024
)

// NodeOption configures a replica at construction.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	journal      Journal
	recovery     *Recovery
	pace         amp.Time // least ticks between ballot starts (see ensureWindow)
	maxBatch     int
	leaseTTL     amp.Time
	leaseMargin  amp.Time
	noLog        bool
	hooks        []func(e Entry, at amp.Time)
	snapshotter  Snapshotter
	compactRecs  int64
	compactBytes int64
}

// WithJournal attaches a persistence journal: acceptor-state changes,
// decided slots, and the TO sequence number are saved synchronously as
// they change, making the replica safe to kill -9 and restart (rebuild
// with WithRecovery from the journal's replay).
func WithJournal(j Journal) NodeOption {
	return func(c *nodeConfig) { c.journal = j }
}

// WithRecovery seeds a restarted replica from a journal replay: the TO
// sequence number resumes past its pre-crash value, each slot's Paxos
// acceptor triple is reinstated (the crash-safety invariant), and
// decided slots are re-applied locally in order, rebuilding the KV
// state. OnApply assigned after NewNode returns does not see the
// replay (so client completions never re-fire); an application state
// machine that must be rebuilt from the replay installs its observer
// with WithApplyHook instead.
func WithRecovery(rec *Recovery) NodeOption {
	return func(c *nodeConfig) { c.recovery = rec }
}

// WithMaxBatch caps the number of commands a proposer packs into one
// slot (default DefaultMaxBatch): it bounds a decided batch's frame.
func WithMaxBatch(m int) NodeOption {
	return func(c *nodeConfig) { c.maxBatch = m }
}

// WithReadLease enables the leader read-lease protocol with the given
// TTL (in clock ticks): followers grant the Ω leader time-bounded
// leases on its heartbeats, consensus acceptors refuse rival ballots
// while a grant is live, and the leader may serve reads from local
// state whenever HoldsLease reports true. Readers elsewhere (or on a
// leaseless leader) must order a no-op command through consensus and
// read after it applies. Every replica in a group must use the same
// setting. See fd.Detector.HoldsLease for the full semantics.
func WithReadLease(ttl amp.Time) NodeOption {
	return func(c *nodeConfig) { c.leaseTTL = ttl }
}

// WithLeaseMargin discounts the holder-side validity of every lease
// grant by margin ticks (see fd.Detector.LeaseMargin). Simulations
// whose clocks run at one rate may leave it 0; real-clock deployments
// must set it to cover clock drift and tick jitter over one TTL, or a
// slow holder clock can believe a lease past the granter's promise.
// The lease model measures the cover: TTL/10 + 2 holds to a 16% slow
// holder clock, TTL/20 to 8%, 0 to 4% (internal/kv's hostLeaseMargin).
func WithLeaseMargin(margin amp.Time) NodeOption {
	return func(c *nodeConfig) { c.leaseMargin = margin }
}

// WithoutAppliedLog disables retention of the full applied-entry slice
// (Applied returns nil). Long-running services use it to keep replica
// memory flat; the per-message dedup watermarks still guarantee
// exactly-once apply.
func WithoutAppliedLog() NodeOption {
	return func(c *nodeConfig) { c.noLog = true }
}

// WithApplyHook registers an apply observer at construction time,
// BEFORE any WithRecovery replay runs. Applications that maintain
// their own state machine over the entry stream (internal/jobq) need
// this: their state is rebuilt by replaying the journal's decided
// slots, and an OnApply assigned only after NewNode returns would miss
// that replay entirely, leaving a recovered replica with consensus
// state but an empty application state. Completion waiters keyed by
// MsgID are still safe — a recovering process has no waiters
// registered yet. Hooks compose: each call appends another observer,
// run in registration order before the public OnApply field, so a test
// harness can watch the replay of a node whose application (jobq) also
// installs its own hook.
func WithApplyHook(fn func(e Entry, at amp.Time)) NodeOption {
	return func(c *nodeConfig) { c.hooks = append(c.hooks, fn) }
}

// WithSnapshotter attaches an application state-machine snapshotter:
// its encoded state rides every journal snapshot and is restored —
// before the journal-suffix replay re-applies newer entries on top —
// when the replica recovers from a compacted journal. Applications
// that install a WithApplyHook to rebuild state from replay
// (internal/jobq) must also set this if their journal compacts, or a
// recovered replica would replay only the suffix into empty state.
func WithSnapshotter(s Snapshotter) NodeOption {
	return func(c *nodeConfig) { c.snapshotter = s }
}

// WithCompaction enables automatic journal compaction when the
// journal's active segment reaches records records or bytes bytes
// (either 0 disables that threshold; both 0 disables auto-compaction).
// Requires a FileJournal (WithJournal); on each trigger the replica
// captures a snapshot inside the event loop and the journal installs
// it crash-safely, truncating its history.
func WithCompaction(records, bytes int64) NodeOption {
	return func(c *nodeConfig) { c.compactRecs, c.compactBytes = records, bytes }
}

// NewNode wires a replica: an Ω detector, a TO-broadcast coordinator,
// and a lazy per-slot consensus multiplexer, all in one Stack. The
// returned Stack is the amp.Process to install in the simulator at
// index == its process id. There is no slot cap: instances are
// materialized on first use and garbage-collected once delivered.
func NewNode(n int, opts ...NodeOption) *Node {
	cfg := nodeConfig{
		pace:     1,
		maxBatch: DefaultMaxBatch,
	}
	for _, o := range opts {
		o(&cfg)
	}
	node := &Node{
		state:   make(map[string]any),
		seen:    newIDSet(n),
		noLog:   cfg.noLog,
		hooks:   cfg.hooks,
		barrier: -1,
	}
	if cfg.leaseTTL > 0 {
		node.submitted = make(map[rbcast.MsgID]amp.Time)
	}
	det := fd.NewDetector(n)
	det.LeaseTTL = cfg.leaseTTL
	det.LeaseMargin = cfg.leaseMargin
	tb := newTOBroadcast(n, det, func(e Entry, at amp.Time) { node.apply(e, at) })
	tb.maxBatch = cfg.maxBatch
	if cfg.journal != nil {
		tb.persistSeq = cfg.journal.SaveSeq
	}
	mux := newSynodMux(tb, det, cfg.journal, cfg.pace)
	tb.mux = mux
	det.OnLeaderChange = func(int, amp.Time) { mux.ensureWindow() }
	node.TO = tb
	node.Omega = det
	node.mux = mux
	node.snapshotter = cfg.snapshotter
	if fj, ok := cfg.journal.(*FileJournal); ok {
		node.journal = fj
		node.compactRecs = cfg.compactRecs
		node.compactBytes = cfg.compactBytes
	}
	if rec := cfg.recovery; rec != nil {
		tb.recovered = true
		if rec.Snap != nil {
			node.restoreSnapshot(rec.Snap)
		}
		if rec.NextSeq > tb.nextSeq {
			tb.nextSeq = rec.NextSeq
		}
		for s, a := range rec.Accepts {
			if s >= tb.compactFloor {
				mux.restoreAcceptor(s, a)
			}
		}
		for _, s := range rec.slots() {
			if s < 0 {
				continue
			}
			tb.onSlotDecide(s, batch(rec.Decides[s]), 0)
		}
	}
	if node.journal != nil && (node.compactRecs > 0 || node.compactBytes > 0) {
		// Installed after replay: recovery itself never re-compacts.
		tb.afterDecide = node.maybeCompact
	}
	node.Stack = amp.NewStack(det, tb, mux)
	return node
}

// restoreSnapshot seeds the replica from a compacted journal's
// snapshot, before the suffix replay layers newer records on top: the
// applied state (built-in KV map plus the Snapshotter payload), the
// delivery/dedup watermarks, and the consensus frontier. Slots below
// Frontier are treated exactly as delivered-and-forgotten slots are on
// a live replica (compactFloor covers them); the snapshot's
// decided-but-undelivered batches are then re-fed through the normal
// decide path, so deliveries resume in order.
func (nd *Node) restoreSnapshot(snap *Snapshot) {
	tb := nd.TO
	tb.nextSeq = snap.NextSeq
	tb.nextDecide = snap.Frontier
	tb.nextDeliver = snap.Frontier
	tb.compactFloor = snap.Frontier
	if snap.Frontier-1 > tb.maxSeen {
		tb.maxSeen = snap.Frontier - 1
	}
	copy(tb.delivered.low, snap.DlvLow)
	for _, id := range snap.Delivered {
		tb.delivered.above[id] = true
	}
	copy(nd.seen.low, snap.SeenLow)
	for _, id := range snap.Seen {
		nd.seen.above[id] = true
	}
	nd.applies = snap.Applies
	for k, v := range snap.State {
		nd.state[k] = v
	}
	if nd.snapshotter != nil && snap.App != nil {
		if err := nd.snapshotter.RestoreState(snap.App); err != nil {
			// The CRC already vouched for the bytes; a decode failure
			// here is a version-skew bug, not corruption. The replica
			// continues with consensus state intact but application
			// state rebuilt only from the suffix.
			log.Printf("rsm: snapshot application-state restore failed: %v", err)
		}
	}
	for s, a := range snap.Accepts {
		if s >= snap.Frontier {
			nd.mux.restoreAcceptor(s, a)
		}
	}
	slots := make([]int, 0, len(snap.Decides))
	for s := range snap.Decides {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		tb.onSlotDecide(s, batch(snap.Decides[s]), 0)
	}
}

// captureSnapshot freezes the replica's recoverable state. Must run
// inside the event loop (or with the runtime stopped): the snapshot
// must cover every journaled record, so no append may interleave.
func (nd *Node) captureSnapshot() (*Snapshot, error) {
	tb := nd.TO
	snap := &Snapshot{
		Frontier: tb.nextDeliver,
		NextSeq:  tb.nextSeq,
		Applies:  nd.applies,
		DlvLow:   append([]int(nil), tb.delivered.low...),
		SeenLow:  append([]int(nil), nd.seen.low...),
		State:    make(map[string]any, len(nd.state)),
		Accepts:  nd.mux.acceptorSnapshot(tb.nextDeliver),
		Decides:  make(map[int][]Entry),
	}
	for id := range tb.delivered.above {
		snap.Delivered = append(snap.Delivered, id)
	}
	for id := range nd.seen.above {
		snap.Seen = append(snap.Seen, id)
	}
	for k, v := range nd.state {
		snap.State[k] = v
	}
	for s, b := range tb.decided {
		if s >= tb.nextDeliver {
			snap.Decides[s] = append([]Entry(nil), b...)
		}
	}
	if nd.snapshotter != nil {
		data, err := nd.snapshotter.SnapshotState()
		if err != nil {
			return nil, err
		}
		snap.App = data
	}
	return snap, nil
}

// Compact captures a snapshot and installs it into the replica's
// FileJournal, truncating the journal's history behind it. Must
// be called inside the event loop (auto-compaction via WithCompaction
// does) or with the runtime stopped (scenario-model restart forcing).
func (nd *Node) Compact() error {
	if nd.journal == nil {
		return errors.New("rsm: Compact requires a FileJournal (WithJournal)")
	}
	snap, err := nd.captureSnapshot()
	if err != nil {
		return err
	}
	return nd.journal.Install(snap)
}

// maybeCompact is the afterDecide hook: compact when the journal's
// active segment crosses a configured threshold.
func (nd *Node) maybeCompact() {
	st := nd.journal.Stats()
	if (nd.compactRecs <= 0 || st.Records < nd.compactRecs) &&
		(nd.compactBytes <= 0 || st.Bytes < nd.compactBytes) {
		return
	}
	if err := nd.Compact(); err != nil && !nd.compactWarn {
		nd.compactWarn = true
		log.Printf("rsm: auto-compaction failed (will not retry-log): %v", err)
	}
}

// Submit TO-broadcasts a command from this replica. Must be called inside
// the event loop (e.g. via Sim.Schedule).
func (nd *Node) Submit(ctx amp.Context, cmd Command) rbcast.MsgID {
	id := nd.TO.Broadcast(ctx, cmd)
	if nd.submitted != nil {
		nd.submitted[id] = ctx.Now()
	}
	return id
}

// Ctx returns the TO component's context (for Schedule-driven Submits).
func (nd *Node) Ctx() amp.Context { return nd.Stack.Ctx(1) }

// apply executes one delivered command on the local state. It is
// idempotent by (proposer, seq), as the TO layer's delivery is: no path
// is known to hand it an entry twice (TestDuplicateSlotDecide makes
// one), but one that did would corrupt the replica (and its
// linearizability history).
func (nd *Node) apply(e Entry, at amp.Time) {
	if nd.seen.has(e.ID) {
		return
	}
	nd.seen.add(e.ID)
	nd.applies++
	if at, ok := nd.submitted[e.ID]; ok {
		delete(nd.submitted, e.ID)
		nd.barrier = max(nd.barrier, at)
	}
	if !nd.noLog {
		nd.applied = append(nd.applied, e)
	}
	cmd, ok := e.Payload.(Command)
	if ok {
		switch cmd.Op {
		case "put":
			nd.state[cmd.Key] = cmd.Val
		case "del":
			delete(nd.state, cmd.Key)
		}
	}
	for _, h := range nd.hooks {
		h(e, at)
	}
	if nd.OnApply != nil {
		nd.OnApply(e, at)
	}
}

// Applied returns the replica's applied sequence (mutual-consistency
// checks compare these across replicas). Nil under WithoutAppliedLog.
func (nd *Node) Applied() []Entry {
	out := make([]Entry, len(nd.applied))
	copy(out, nd.applied)
	return out
}

// Get reads a key from the replica's local state.
func (nd *Node) Get(key string) any { return nd.state[key] }

// Len returns the number of applied commands.
func (nd *Node) Len() int { return nd.applies }

// HoldsLease reports whether this replica may serve reads from its
// local state at now: it holds the leader read-lease (see
// WithReadLease), and it has applied a command it submitted since its
// current unbroken run of holding began (fd.Detector.LeaseSince). While
// true, its local state reflects every committed write, and Get serves
// linearizable reads without a consensus round: the lease keeps rivals
// from committing during the run, and the command, ordered after every
// write committed before it was submitted, shows that this replica has
// applied those. A leader back from a pause or a partition has grants
// again before it has caught up; until its first command applies, its
// reads go through consensus, and the first such read is that command.
func (nd *Node) HoldsLease(now amp.Time) bool {
	since, ok := nd.Omega.LeaseSince(now)
	return ok && since <= nd.barrier && nd.Omega.HoldsLease(now)
}

// Resends returns how many times this replica, as originator, has
// broadcast a payload again because it was still unordered a sync
// period after it was sent (see relayLingering).
func (nd *Node) Resends() int { return nd.TO.resends }

// SlotsDelivered returns the number of consensus slots this replica has
// delivered (the batching ratio is Len()/SlotsDelivered()).
func (nd *Node) SlotsDelivered() int { return nd.TO.nextDeliver }

// LiveInstances returns the number of materialized consensus instances
// (test/introspection hook for the slot GC).
func (nd *Node) LiveInstances() int { return len(nd.mux.insts) }

// RetainedBatches returns the number of decided batches currently held
// for anti-entropy (bounded by DefaultRetention plus the undelivered span).
func (nd *Node) RetainedBatches() int { return len(nd.TO.decided) }
