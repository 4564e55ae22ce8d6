package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/kv"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// The traced pass measures where one request's time goes. Spans are
// recorded from this package only, around calls into each layer, on
// two stacks assembled in this process from public constructors:
//
//   - three kv.Hosts over localhost TCP behind bench-owned
//     clientrpc.Servers whose handler is a span around Host.Handle:
//     client.call ⊃ kv.host.handle, per op class;
//   - the stack kv.Host.startShard builds, rebuilt here with a span
//     wrapper at every seam: rsm.NewNode + Runtime(Resilient(TCP)) +
//     FileJournal + apply hook: rsm.commit ⊃ journal.append,
//     transport.send, runtime.on_frame.
//
// Tracing inside the daemons is a later change; the end-to-end numbers
// always come from the untraced workloads.

// Span names.
const (
	spanCall    = "client.call"
	spanHandle  = "kv.host.handle"
	spanCommit  = "rsm.commit"
	spanJournal = "journal.append"
	spanSend    = "transport.send"
	spanOnFrame = "runtime.on_frame" // every event-loop entry: frames, timers, submits
)

// seam is what the wrappers of one node share: the tracer and the
// commit span currently open at that node, which becomes the parent of
// everything the node does meanwhile (one command is in flight at a
// time, so the attribution is exact up to heartbeats).
type seam struct {
	tr  *tracer
	cur atomic.Int64 // open rsm.commit span, noSpan if none
	req atomic.Int64
}

func (s *seam) span(name string) int {
	return s.tr.begin(name, int(s.cur.Load()), s.req.Load())
}

// tracedTransport is a transport.Transport with a span around Send
// and, if recvName is set, around the delivery upcall. With the tracer
// off it only forwards.
type tracedTransport struct {
	transport.Transport
	s        *seam
	sendName string
	recvName string
	frames   atomic.Int64
	bytes    atomic.Int64
	sample   func(frame []byte) // sees every sent frame while tracing
}

func (t *tracedTransport) Send(to int, frame []byte) error {
	if !t.s.tr.on.Load() {
		return t.Transport.Send(to, frame)
	}
	t.frames.Add(1)
	t.bytes.Add(int64(len(frame)))
	if t.sample != nil {
		t.sample(frame)
	}
	id := noSpan
	if t.sendName != "" {
		id = t.s.span(t.sendName)
	}
	err := t.Transport.Send(to, frame)
	t.s.tr.finish(id)
	return err
}

func (t *tracedTransport) Handle(h transport.Handler) {
	if t.recvName == "" {
		t.Transport.Handle(h)
		return
	}
	t.Transport.Handle(func(from int, frame []byte) {
		id := t.s.span(t.recvName)
		h(from, frame)
		t.s.tr.finish(id)
	})
}

// tracedJournal is an rsm.Journal with a span around every save.
type tracedJournal struct {
	inner rsm.Journal
	s     *seam
}

func (j *tracedJournal) SaveSeq(next int) {
	id := j.s.span(spanJournal)
	j.inner.SaveSeq(next)
	j.s.tr.finish(id)
}

func (j *tracedJournal) SaveAccept(slot int, a rsm.Acceptor) {
	id := j.s.span(spanJournal)
	j.inner.SaveAccept(slot, a)
	j.s.tr.finish(id)
}

func (j *tracedJournal) SaveDecide(slot int, b []rsm.Entry) {
	id := j.s.span(spanJournal)
	j.inner.SaveDecide(slot, b)
	j.s.tr.finish(id)
}

// tracedClock puts timer callbacks under an event-loop span, so time
// the node spends in timers is not booked as waiting.
type tracedClock struct {
	transport.Clock
	s *seam
}

func (c tracedClock) AfterFunc(d amp.Time, f func()) transport.Timer {
	return c.Clock.AfterFunc(d, func() {
		id := c.s.span(spanOnFrame)
		f()
		c.s.tr.finish(id)
	})
}

// tracedNode is one replica of the bench-assembled stack.
type tracedNode struct {
	seam
	node    *rsm.Node
	rt      *transport.Runtime
	tcp     *transport.TCP
	res     *transport.Resilient
	above   *tracedTransport // runtime <-> Resilient: logical frames
	below   *tracedTransport // Resilient <-> TCP: wire frames
	journal *rsm.FileJournal
	applied chan rbcast.MsgID
}

// The tuning kv.Host gives its replicas (internal/kv/host.go).
const (
	hostLeaseTTL  = 500
	hostHeartbeat = 40
)

func startTracedNode(tr *tracer, self int, addrs []string, journalPath string, sample func([]byte)) (*tracedNode, error) {
	n := &tracedNode{applied: make(chan rbcast.MsgID, 16)} // one command in flight; room for heartbeat-era stragglers
	n.tr = tr
	n.cur.Store(noSpan)
	fj, _, err := rsm.OpenFileJournal(journalPath)
	if err != nil {
		return nil, err
	}
	n.journal = fj
	n.node = rsm.NewNode(len(addrs),
		rsm.WithoutAppliedLog(),
		rsm.WithReadLease(hostLeaseTTL), rsm.WithLeaseMargin(hostLeaseTTL/10+2),
		rsm.WithJournal(&tracedJournal{inner: fj, s: &n.seam}),
		rsm.WithApplyHook(func(e rsm.Entry, _ amp.Time) {
			if e.ID.Sender == self {
				select {
				case n.applied <- e.ID:
				default:
				}
			}
		}),
	)
	n.node.Omega.Period = hostHeartbeat
	if n.tcp, err = transport.NewTCP(self, addrs, transport.TCPOptions{}); err != nil {
		fj.Close()
		return nil, err
	}
	clock := tracedClock{Clock: transport.NewRealClock(transport.DefaultUnit), s: &n.seam}
	n.below = &tracedTransport{Transport: n.tcp, s: &n.seam, sendName: spanSend}
	n.res = transport.NewResilient(n.below, clock, transport.Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, Seed: int64(self + 1)})
	n.above = &tracedTransport{Transport: n.res, s: &n.seam, recvName: spanOnFrame, sample: sample}
	n.rt = transport.NewRuntime(n.above, clock, n.node.Stack,
		transport.WithRuntimeSeed(int64(self+1)),
		transport.WithSuspectSource(n.node.Omega.Suspects),
		transport.WithSuspectKick(n.res.Kick),
	)
	n.res.SetSuspected(n.rt.Suspected)
	n.rt.Start()
	return n, nil
}

func (n *tracedNode) close() {
	n.rt.Stop()
	n.tcp.Close()
	n.journal.Close()
}

// commit runs one command through consensus at this node and returns
// submit → local apply.
func (n *tracedNode) commit(req int64, cmd rsm.Command) (time.Duration, error) {
	n.req.Store(req)
	t0 := time.Now()
	id := n.tr.begin(spanCommit, noSpan, req)
	n.cur.Store(int64(id))
	var want rbcast.MsgID
	sub := n.span(spanOnFrame)
	n.rt.Do(func(amp.Context) { want = n.node.Submit(n.node.Ctx(), cmd) })
	n.tr.finish(sub)
	deadline := time.After(kvTimeout)
	for {
		select {
		case got := <-n.applied:
			if got != want {
				continue
			}
			n.tr.finish(id)
			n.cur.Store(noSpan)
			return time.Since(t0), nil
		case <-deadline:
			n.cur.Store(noSpan)
			return 0, fmt.Errorf("traced commit %d not applied after %s", req, kvTimeout)
		}
	}
}

// frameSampler keeps a few of the frames the runtime sends, for the
// codec probes.
type frameSampler struct {
	mu     sync.Mutex
	frames [][]byte
}

func (f *frameSampler) take(frame []byte) {
	f.mu.Lock()
	if len(f.frames) < 256 {
		f.frames = append(f.frames, append([]byte(nil), frame...))
	}
	f.mu.Unlock()
}

// rsmBudget is what the assembled stack measured for one kind of
// command, per command.
type rsmBudget struct {
	commit, commitNo            hist    // generator-side submit → apply, recorded and not
	n                           int     // rsm.commit spans folded in
	journal, send, busy, waited float64 // mean µs per command inside rsm.commit
}

// rsmTrace is one run of the assembled stack.
type rsmTrace struct {
	kinds                     map[string]*rsmBudget // "write", "quorum_read"
	appendUS                  float64               // mean µs of one journal save
	frames, wireFrames, wireB float64               // per command, summed over the three nodes
	sendUS                    float64               // µs inside wire Send per command, all nodes
	retries                   float64
	spans                     int
	samples                   [][]byte
}

const tracedCommands = 900

// tracedKind is the i-th command of the traced run: puts alternate
// between the leader and a follower, as the two connections of
// kv-tcp-write do; every third command is a consensus read at the
// follower, as on connection B of kv-tcp-read.
func tracedKind(i int) (kind string, node int, cmd rsm.Command) {
	key := fmt.Sprintf("k%d", i%64)
	switch i % 3 {
	case 0:
		return "write", 0, rsm.Command{Op: "put", Key: key, Val: i}
	case 1:
		return "write", 1, rsm.Command{Op: "put", Key: key, Val: i}
	}
	return "quorum_read", 1, rsm.Command{Op: "get", Key: key}
}

// runTracedRSM drives tracedCommands commands, one at a time, through
// the assembled stack, recording every second one.
func runTracedRSM(c *ctx) (*rsmTrace, error) {
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	dir, err := c.env.dir("traced-rsm")
	if err != nil {
		return nil, err
	}
	addrs, err := allocAddrs(kvProcs)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var fs frameSampler
	nodes := make([]*tracedNode, kvProcs)
	for i := range nodes {
		if nodes[i], err = startTracedNode(tr, i, addrs, filepath.Join(dir, fmt.Sprintf("node%d.journal", i)), fs.take); err != nil {
			for _, n := range nodes[:i] {
				n.close()
			}
			return nil, err
		}
		defer nodes[i].close()
	}
	// Untimed commands until the group has a leader and a lease.
	for i := 0; i < 60; i++ {
		_, node, cmd := tracedKind(i)
		if _, err := nodes[node].commit(int64(-1-i), cmd); err != nil {
			return nil, err
		}
	}
	var retries0 float64
	for _, n := range nodes {
		retries0 += float64(n.res.Stats().Retries.Load())
	}
	t := &rsmTrace{kinds: map[string]*rsmBudget{"write": {}, "quorum_read": {}}}
	kindOf := make(map[int64]string, tracedCommands)
	recorded := 0.0
	for i := 0; i < tracedCommands; i++ {
		kind, node, cmd := tracedKind(i)
		// One command is in flight at a time, so the switch flips
		// between commands; heartbeats see whichever state is current.
		tr.on.Store(traced(i))
		d, err := nodes[node].commit(int64(i), cmd)
		if err != nil {
			return nil, err
		}
		if traced(i) {
			t.kinds[kind].commit.record(d)
			recorded++
		} else {
			t.kinds[kind].commitNo.record(d)
		}
		kindOf[int64(i)] = kind
	}
	tr.on.Store(false)
	spans := tr.snapshot()
	t.spans = len(spans)
	kids := map[int][]int{}
	var appendSum, sendSum time.Duration
	var appends int
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		switch s.name {
		case spanJournal:
			appendSum += s.end - s.start
			appends++
		case spanSend:
			sendSum += s.end - s.start
		}
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range spans {
		if s.name != spanCommit || s.end < 0 {
			continue
		}
		b := t.kinds[kindOf[s.req]]
		only := func(names ...string) []int {
			var out []int
			for _, k := range kids[i] {
				for _, n := range names {
					if spans[k].name == n {
						out = append(out, k)
					}
				}
			}
			return out
		}
		// Disjoint lines: journal first, then what sends add, then what
		// the event loop adds; the rest of the commit is waiting.
		j := covered(spans, only(spanJournal), s.start, s.end)
		js := covered(spans, only(spanJournal, spanSend), s.start, s.end)
		all := covered(spans, kids[i], s.start, s.end)
		b.n++
		b.journal += us(j)
		b.send += us(js - j)
		b.busy += us(all - js)
		b.waited += us(s.end - s.start - all)
	}
	for kind, b := range t.kinds {
		if b.n == 0 {
			return nil, fmt.Errorf("traced pass recorded no %s span for %s", spanCommit, kind)
		}
		f := float64(b.n)
		b.journal, b.send, b.busy, b.waited = b.journal/f, b.send/f, b.busy/f, b.waited/f
	}
	if appends > 0 {
		t.appendUS = us(appendSum) / float64(appends)
	}
	for _, n := range nodes {
		t.frames += float64(n.above.frames.Load()) / recorded
		t.wireFrames += float64(n.below.frames.Load()) / recorded
		t.wireB += float64(n.below.bytes.Load()) / recorded
		t.retries += float64(n.res.Stats().Retries.Load())
	}
	t.retries -= retries0
	t.sendUS = us(sendSum) / recorded
	t.samples = fs.frames
	if c.spansOut != "" {
		if err := writeSpans(c.spansOut+".rsm.json", spans); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// hostClass is one op class as seen through the three kv.Hosts.
type hostClass struct {
	call   hist // generator-side, tracing on
	callNo hist // generator-side, tracing off
	self   hist // client.call minus its kv.host.handle child
	handle hist
}

// tracedHosts are three kv.Hosts behind bench-owned clientrpc servers.
type tracedHosts struct {
	tr    *tracer
	hosts []*kv.Host
	srvs  []*clientrpc.Server
	kc    *kvCluster // addresses, keys, lease holder
	keyIx map[string]int
	open  []atomic.Int64 // per key: the open client.call span
	req   atomic.Int64
}

func startTracedHosts(c *ctx) (*tracedHosts, error) {
	dir, err := c.env.dir("traced-hosts")
	if err != nil {
		return nil, err
	}
	peers := make([][]string, kvShards)
	for s := range peers {
		if peers[s], err = allocAddrs(kvProcs); err != nil {
			return nil, err
		}
	}
	th := &tracedHosts{tr: newTracer()}
	for i := 0; i < kvProcs; i++ {
		journals := make([]string, kvShards)
		for s := range journals {
			journals[s] = filepath.Join(dir, fmt.Sprintf("shard%d-host%d.journal", s, i))
		}
		h, err := kv.NewHost(kv.HostConfig{Shards: kvShards, Peers: peers, Self: i, Journals: journals})
		if err != nil {
			th.close()
			return nil, err
		}
		th.hosts = append(th.hosts, h)
		srv, err := clientrpc.NewServer("127.0.0.1:0", func(req clientrpc.Request) clientrpc.Response {
			id := noSpan
			if ix, ok := th.keyIx[req.Key]; ok {
				if p := int(th.open[ix].Load()); p != noSpan {
					id = th.tr.begin(spanHandle, p, 0)
				}
			}
			resp := h.Handle(req)
			th.tr.finish(id)
			return resp
		})
		if err != nil {
			th.close()
			return nil, err
		}
		th.srvs = append(th.srvs, srv)
	}
	th.kc = &kvCluster{cluster: &cluster{procs: make([]*proc, kvProcs)}}
	for _, s := range th.srvs {
		th.kc.clients = append(th.kc.clients, s.Addr())
	}
	th.kc.keys, _ = kvKeysFor(c.rng, kvKeys)
	th.keyIx = make(map[string]int, kvKeys)
	for i, k := range th.kc.keys {
		th.keyIx[k] = i
	}
	th.open = make([]atomic.Int64, kvKeys)
	for i := range th.open {
		th.open[i].Store(noSpan)
	}
	if err := th.kc.bringUp(); err != nil {
		th.close()
		return nil, err
	}
	return th, nil
}

func (th *tracedHosts) close() {
	for _, s := range th.srvs {
		s.Close()
	}
	for _, h := range th.hosts {
		h.Close()
	}
}

// conn is one traced client connection. Every second call is traced:
// it is a client.call span, which the server-side wrapper finds
// through the request key and hangs its kv.host.handle span under; the
// calls between pass through both wrappers unrecorded. Alternating per
// call gives the two sides of the overhead comparison the same
// scheduler weather. Connections use disjoint keys (index mod stride)
// so a key names one open call.
func (th *tracedHosts) conn(srv, lane, stride int, write bool) func(seq int) error {
	cl := clientrpc.NewClient(th.kc.clients[srv])
	keys := th.kc.keys
	return func(seq int) error {
		ix := (seq*stride + lane) % len(keys)
		key := keys[ix]
		id := noSpan
		if traced(seq) {
			id = th.tr.begin(spanCall, noSpan, th.req.Add(1))
		}
		th.open[ix].Store(int64(id))
		var err error
		if write {
			err = cl.Put(key, seq, kvTimeout)
		} else {
			_, err = cl.Get(key, kvTimeout)
		}
		th.tr.finish(id)
		return err
	}
}

// traced says whether the seq-th call or command of a traced pass is
// recorded.
func traced(seq int) bool { return seq%2 == 1 }

// tracedPhase is how long each phase of the hosts pass runs.
const tracedPhase = 3 * time.Second

// measure runs ops (one closed loop each) for tracedPhase and returns
// each connection's latencies, traced calls and untraced ones apart.
func (th *tracedHosts) measure(ops []func(int) error) (on, off []hist) {
	on, off = make([]hist, len(ops)), make([]hist, len(ops))
	th.tr.on.Store(true)
	end := time.Now().Add(tracedPhase)
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func(i int, op func(int) error) {
			defer wg.Done()
			for seq := 0; time.Now().Before(end); seq++ {
				t0 := time.Now()
				if op(seq) != nil {
					continue
				}
				if traced(seq) {
					on[i].record(time.Since(t0))
				} else {
					off[i].record(time.Since(t0))
				}
			}
		}(i, op)
	}
	wg.Wait()
	th.tr.on.Store(false)
	return on, off
}

// classSpans folds the client.call spans in spans[from:to] — one
// phase, so one op class — into self and handle times.
func classSpans(spans []span, self []time.Duration, from, to int, hc *hostClass) {
	child := map[int]int{}
	for i := from; i < to; i++ {
		if spans[i].name == spanHandle && spans[i].end >= 0 {
			child[spans[i].parent] = i
		}
	}
	for i := from; i < to; i++ {
		k, ok := child[i]
		if spans[i].name != spanCall || spans[i].end < 0 || !ok {
			continue
		}
		hc.self.record(self[i])
		hc.handle.record(spans[k].end - spans[k].start)
	}
}

// runTracedHosts measures the three op classes through the hosts, one
// phase each, two connections in every phase: put at hosts 0 and 1 as
// in kv-tcp-write, then get at the lease holder and get at the two
// followers as in the two phases of kv-tcp-read.
func runTracedHosts(c *ctx) (map[string]*hostClass, int, error) {
	th, err := startTracedHosts(c)
	if err != nil {
		return nil, 0, err
	}
	defer th.close()
	holder, followers := th.kc.holder, th.kc.others()
	phases := []struct {
		class string
		ops   []func(int) error
	}{
		{"write", []func(int) error{th.conn(0, 0, 2, true), th.conn(1, 1, 2, true)}},
		{"lease_read", []func(int) error{th.conn(holder, 0, 2, false), th.conn(holder, 1, 2, false)}},
		{"quorum_read", []func(int) error{th.conn(followers[0], 0, 2, false), th.conn(followers[1], 1, 2, false)}},
	}
	out := map[string]*hostClass{}
	marks := []int{0}
	for _, ph := range phases {
		hc := &hostClass{}
		on, off := th.measure(ph.ops)
		for i := range on {
			hc.call.merge(&on[i])
			hc.callNo.merge(&off[i])
		}
		out[ph.class] = hc
		marks = append(marks, len(th.tr.snapshot()))
	}
	spans := th.tr.snapshot()
	self := selfTimes(spans)
	for i, ph := range phases {
		classSpans(spans, self, marks[i], marks[i+1], out[ph.class])
	}
	if c.spansOut != "" {
		if err := writeSpans(c.spansOut+".hosts.json", spans); err != nil {
			return nil, 0, err
		}
	}
	return out, len(spans), nil
}

// writeSpans writes spans as a JSON array; it is only called when the
// run ends.
func writeSpans(path string, spans []span) error {
	type row struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Req     int64  `json:"req"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{i, s.parent, s.req, s.name, int64(s.start), int64(s.end)}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedClasses are the op classes the hosts pass measures.
var tracedClasses = []string{"write", "lease_read", "quorum_read"}

// layerTraced is the per-layer group behind the budget tables.
func layerTraced(c *ctx, r *result) error {
	hosts, hostSpans, err := runTracedHosts(c)
	if err != nil {
		return err
	}
	t, err := runTracedRSM(c)
	if err != nil {
		return err
	}
	w := t.kinds["write"]
	r.set("rsm.commit_us", w.commit.us(0.5))
	r.set("rsm.commit_wait_us", w.waited)
	r.set("rsm.handler_busy_us_per_cmd", w.busy)
	r.set("rsm.journal.append_us", t.appendUS)
	r.set("transport.frames_per_cmd", t.frames)
	r.set("transport.wire_frames_per_cmd", t.wireFrames)
	r.set("transport.wire_bytes_per_cmd", t.wireB)
	r.set("transport.send_us_per_cmd", t.sendUS)
	r.set("transport.retries", t.retries)
	r.set("trace.spans", float64(hostSpans+t.spans))
	r.set("kv.wave_self_us", hosts["write"].handle.us(0.5)-w.commit.us(0.5))
	r.notef("traced rsm stack, write: commit %s; per command: journal %.1fµs send %.1fµs event loop %.1fµs wait %.1fµs",
		&w.commit, w.journal, w.send, w.busy, w.waited)
	r.notef("traced rsm stack, all commands: %.1f frames, %.1f wire frames, %.0f wire bytes, %.1fµs in wire sends per command (three nodes); %v retries",
		t.frames, t.wireFrames, t.wireB, t.sendUS, t.retries)

	// Tracing overhead: alternate calls with the wrappers recording and
	// passing through — the largest median shift over the three classes
	// through the hosts and the two command kinds on the rsm stack.
	over := -100.0
	shift := func(what string, on, off *hist) {
		o := 100 * (on.quantile(0.5) - off.quantile(0.5)) / off.quantile(0.5)
		r.notef("  tracing on vs off, %-22s p50 %9.1fµs vs %9.1fµs  %+5.2f %%", what, on.us(0.5), off.us(0.5), o)
		over = max(over, o)
	}
	for _, cl := range tracedClasses {
		shift("hosts "+cl, &hosts[cl].call, &hosts[cl].callNo)
	}
	for kind, b := range t.kinds {
		shift("rsm "+kind, &b.commit, &b.commitNo)
	}
	r.set("trace.overhead_pct", over)
	if over >= 5 {
		r.notef("WARNING: trace.overhead_pct %.2f is not below 5: do not trust this budget", over)
	}

	for _, cl := range tracedClasses {
		hc := hosts[cl]
		r.set("clientrpc.self_us."+cl, hc.self.us(0.5))
		r.set("kv.host.handle_us."+cl, hc.handle.us(0.5))
		budgetTable(r, cl, hc, t.kinds[cl])
	}
	return probeCodec(r, t.samples)
}

// budgetTable prints where client.call p50 goes for one op class; b is
// the matching command kind on the rsm stack, nil for lease reads,
// which run no command. The lines sum to that p50 by construction:
// wait is what is left after every measured line, so it is shown, not
// hidden.
func budgetTable(r *result, class string, hc *hostClass, b *rsmBudget) {
	total := hc.call.us(0.5)
	type line struct {
		name string
		us   float64
	}
	lines := []line{{"clientrpc self", hc.self.us(0.5)}}
	if b == nil {
		lines = append(lines, line{"kv.host.handle (actor mutex + map read)", hc.handle.us(0.5)})
	} else {
		lines = append(lines,
			line{"kv wave self (handle - rsm.commit)", hc.handle.us(0.5) - b.commit.us(0.5)},
			line{"journal append", b.journal},
			line{"transport send", b.send},
			line{"event loop busy", b.busy})
	}
	rest := total
	for _, l := range lines {
		rest -= l.us
	}
	lines = append(lines, line{"wait (timers + peers; residual)", rest})
	r.notef("budget %-11s client.call %s", class, &hc.call)
	for _, l := range lines {
		r.notef("  %-42s %9.1f µs %6.1f %%", l.name, l.us, 100*l.us/total)
	}
	r.notef("  %-42s %9.1f µs %6.1f %%", "sum", total, 100.0)
}
