package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/splitmix"
)

// mockInner is a hand-cranked inner Transport: sends are captured, and
// the test injects deliveries (acks, duplicates) itself.
type mockInner struct {
	self, n int

	mu   sync.Mutex
	h    Handler
	sent map[int][][]byte
	fail map[int]error // synchronous Send error per peer
}

func newMockInner(self, n int) *mockInner {
	return &mockInner{self: self, n: n, sent: map[int][][]byte{}, fail: map[int]error{}}
}

func (m *mockInner) Self() int { return m.self }
func (m *mockInner) N() int    { return m.n }
func (m *mockInner) Handle(h Handler) {
	m.mu.Lock()
	m.h = h
	m.mu.Unlock()
}
func (m *mockInner) Send(to int, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail[to]; err != nil {
		return err
	}
	m.sent[to] = append(m.sent[to], append([]byte(nil), frame...))
	return nil
}
func (m *mockInner) Close() error { return nil }

func (m *mockInner) sentTo(to int) [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]byte, len(m.sent[to]))
	copy(out, m.sent[to])
	return out
}

// deliver injects a frame as if it arrived from peer `from`.
func (m *mockInner) deliver(from int, frame []byte) {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	if h != nil {
		h(from, frame)
	}
}

// ackLast acks the newest data frame sent to peer.
func (m *mockInner) ackLast(t *testing.T, peer int) {
	t.Helper()
	frames := m.sentTo(peer)
	if len(frames) == 0 {
		t.Fatal("no frames to ack")
	}
	last := frames[len(frames)-1]
	if last[0] != envData {
		t.Fatalf("last frame is not data: kind %d", last[0])
	}
	m.deliver(peer, append([]byte{envAck}, last[1:envSize]...))
}

// The policy tests drive Resilient from a node-less Loopback: its Clock
// fires timers, in (time, arm-order) order, only inside Run, so a link
// steps through timeout -> backoff -> retransmit cycles deterministically
// without sleeping.

// advance moves lb's clock d ticks on, firing every timer due on the way
// (including those armed by the callbacks it fires).
func advance(lb *Loopback, d amp.Time) { lb.Run(lb.Now() + d) }

// nextSendTick steps lb one tick at a time until inner has handed one
// more frame to peer 1, and returns the tick that happened at: the
// retransmission schedule read off the send log.
func nextSendTick(t *testing.T, lb *Loopback, inner *mockInner) amp.Time {
	t.Helper()
	n := len(inner.sentTo(1))
	for i := 0; i < 10_000; i++ {
		advance(lb, 1)
		if len(inner.sentTo(1)) > n {
			return lb.Now()
		}
	}
	t.Fatalf("no send to peer 1 within 10000 ticks of tick %d", lb.Now()-10_000)
	return 0
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	for _, p := range []Policy{
		{RetryBase: 10, RetryCap: 80, JitterPct: 1},                       // jitter span rounds to 0
		Policy{RetryBase: 10, RetryCap: 80, JitterPct: -1}.withDefaults(), // negative = none, and defaulting keeps it so
	} {
		rng := splitmix.New(7)
		want := []amp.Time{10, 20, 40, 80, 80, 80}
		for i, w := range want {
			got := p.Backoff(i+1, &rng)
			// span = w*1/100 == 0 for w < 100, so the value is exact.
			if got != w {
				t.Fatalf("JitterPct %d: Backoff(%d) = %d, want %d", p.JitterPct, i+1, got, w)
			}
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{RetryBase: 100, RetryCap: 800, JitterPct: 25}
	rng := splitmix.New(42)
	seen := map[amp.Time]bool{}
	for attempt := 1; attempt <= 6; attempt++ {
		base := amp.Time(100 << (attempt - 1))
		if base > 800 {
			base = 800
		}
		span := int64(base) * 25 / 100
		for trial := 0; trial < 200; trial++ {
			d := p.Backoff(attempt, &rng)
			if int64(d) < int64(base)-span || int64(d) > int64(base)+span {
				t.Fatalf("Backoff(%d) = %d outside [%d, %d]", attempt, d, int64(base)-span, int64(base)+span)
			}
			seen[d] = true
		}
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays; not jittering", len(seen))
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	p := Policy{RetryBase: 20, RetryCap: 400, JitterPct: 25}
	a, b := splitmix.New(5), splitmix.New(5)
	for i := 1; i <= 10; i++ {
		if x, y := p.Backoff(i, &a), p.Backoff(i, &b); x != y {
			t.Fatalf("same seed diverged at attempt %d: %d vs %d", i, x, y)
		}
	}
}

func TestResilientAckCompletesSend(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{})
	var got [][]byte
	r.Handle(func(from int, frame []byte) { got = append(got, append([]byte(nil), frame...)) })

	if err := r.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	frames := inner.sentTo(1)
	if len(frames) != 1 || frames[0][0] != envData {
		t.Fatalf("sent frames: %d", len(frames))
	}
	if !bytes.Equal(frames[0][envSize:], []byte("hello")) {
		t.Fatalf("payload %q", frames[0][envSize:])
	}
	inner.ackLast(t, 1)
	if r.Stats().Acked.Load() != 1 {
		t.Fatalf("Acked = %d, want 1", r.Stats().Acked.Load())
	}
	if r.QueueLen(1) != 0 {
		t.Fatalf("QueueLen = %d, want 0", r.QueueLen(1))
	}
	// No retransmission after the ack.
	advance(lb, 10_000)
	if n := len(inner.sentTo(1)); n != 1 {
		t.Fatalf("acked frame was retransmitted: %d sends", n)
	}
}

func TestResilientRetransmitOnTimeout(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{SendTimeout: 40, RetryBase: 20, RetryCap: 400, JitterPct: 1, Budget: 8, Seed: 3})
	r.Handle(func(int, []byte) {})

	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The ack timeout fires at SendTimeout=40 and the backoff for attempt
	// 1 is RetryBase=20 (jitter span rounds to 0): the retransmission goes
	// out at tick 60 exactly, not a tick before.
	if at := nextSendTick(t, lb, inner); at != 60 {
		t.Fatalf("retransmitted at tick %d, want 60 (timeout 40 + backoff 20)", at)
	}
	frames := inner.sentTo(1)
	if len(frames) != 2 {
		t.Fatalf("sends = %d, want 2", len(frames))
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatal("retransmission differs from original (seq must be stable)")
	}
	if r.Stats().Retries.Load() != 1 {
		t.Fatalf("Retries = %d, want 1", r.Stats().Retries.Load())
	}
	// A late ack still completes it.
	inner.ackLast(t, 1)
	advance(lb, 10_000)
	if n := len(inner.sentTo(1)); n != 2 {
		t.Fatalf("sends after ack = %d, want 2", n)
	}
}

func TestResilientJitteredBackoffWithinBounds(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{SendTimeout: 40, RetryBase: 100, RetryCap: 800, JitterPct: 25, Budget: 100, Seed: 9})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Walk several timeout->backoff cycles; each retransmission must go
	// out SendTimeout plus a backoff within +/-25% of the capped
	// exponential schedule after the previous transmission.
	for attempt := 1; attempt <= 8; attempt++ {
		sent := lb.Now()
		base := amp.Time(100)
		for i := 1; i < attempt; i++ {
			base *= 2
			if base >= 800 {
				base = 800
				break
			}
		}
		span := int64(base) * 25 / 100
		d := int64(nextSendTick(t, lb, inner) - sent - 40)
		if d < int64(base)-span || d > int64(base)+span {
			t.Fatalf("attempt %d: backoff %d outside [%d, %d]", attempt, d, int64(base)-span, int64(base)+span)
		}
	}
}

func TestResilientBudgetExhaustion(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{SendTimeout: 10, RetryBase: 10, RetryCap: 20, JitterPct: 1, Budget: 3, Seed: 1})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }

	if err := r.Send(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(1, []byte("next")); err != nil {
		t.Fatal(err) // queues behind the in-flight frame
	}
	advance(lb, 10_000) // burn both frames through the whole budget
	if len(drops) != 2 {
		t.Fatalf("drops = %d, want 2 (both frames exhaust)", len(drops))
	}
	var re *RetryError
	if !errors.As(drops[0], &re) {
		t.Fatalf("drop error %T, want *RetryError", drops[0])
	}
	if re.To != 1 || re.Attempts != 3 {
		t.Fatalf("RetryError = %+v", re)
	}
	if r.Stats().Dropped.Load() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Stats().Dropped.Load())
	}
	// The queued frame must have advanced into transmission (attempts on
	// it also exhausted by the big Advance — but it must have been TRIED).
	var sawNext bool
	for _, f := range inner.sentTo(1) {
		if bytes.Equal(f[envSize:], []byte("next")) {
			sawNext = true
		}
	}
	if !sawNext {
		t.Fatal("queued frame never transmitted after budget drop")
	}
}

func TestResilientSynchronousSendErrorRetries(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.fail[1] = fmt.Errorf("connection refused")
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{SendTimeout: 10, RetryBase: 5, RetryCap: 10, JitterPct: 1, Budget: 3, Seed: 1})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err) // async contract: synchronous inner failure still retries
	}
	advance(lb, 1_000)
	if len(drops) != 1 {
		t.Fatalf("drops = %d, want 1", len(drops))
	}
	var re *RetryError
	if !errors.As(drops[0], &re) {
		t.Fatalf("%T", drops[0])
	}
	if re.Last == nil || re.Last.Error() != "connection refused" {
		t.Fatalf("RetryError.Last = %v", re.Last)
	}
}

// TestResilientRefusedSendWaitsOneBackoff: a peer that refuses the first
// attempt (not listening yet) gets the frame one backoff later, not an
// ack wait's or a second backoff's worth — a deployment's first quorum
// waits on this when its processes start a millisecond apart.
func TestResilientRefusedSendWaitsOneBackoff(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.fail[1] = fmt.Errorf("connection refused")
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, JitterPct: -1, Seed: 1})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t0 := lb.Now()
	inner.mu.Lock()
	delete(inner.fail, 1)
	inner.mu.Unlock()
	if at := nextSendTick(t, lb, inner); at-t0 != 10 {
		t.Fatalf("refused frame re-sent %d ticks later, want one RetryBase (10)", at-t0)
	}
}

func TestResilientShedAtQueueCap(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	suspected := true
	r := NewResilient(inner, lb.Clock(), Policy{
		QueueCap:  4,
		Suspected: func(peer int) bool { return peer == 1 && suspected },
	})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }

	for i := 0; i < 4; i++ {
		if err := r.Send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if len(inner.sentTo(1)) != 0 {
		t.Fatal("suspected peer received transmissions")
	}
	if r.QueueLen(1) != 4 {
		t.Fatalf("QueueLen = %d, want 4", r.QueueLen(1))
	}
	// The cap: the fifth send sheds, synchronously and typed.
	err := r.Send(1, []byte{99})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("send over cap: %v (%T), want *ShedError", err, err)
	}
	if se.Queued != 4 {
		t.Fatalf("ShedError.Queued = %d", se.Queued)
	}
	if len(drops) != 1 || !errors.As(drops[0], &se) {
		t.Fatalf("OnDrop not invoked with ShedError: %v", drops)
	}
	if r.Stats().Shed.Load() != 1 {
		t.Fatalf("Shed = %d, want 1", r.Stats().Shed.Load())
	}
	// The queue NEVER grows past the cap — the bounded-memory promise.
	for i := 0; i < 100; i++ {
		_ = r.Send(1, []byte{byte(i)})
	}
	if r.QueueLen(1) != 4 {
		t.Fatalf("QueueLen after flood = %d, want 4", r.QueueLen(1))
	}
}

func TestResilientSuspectedParksThenRecovers(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	suspected := false
	r := NewResilient(inner, lb.Clock(), Policy{
		SendTimeout: 10, RetryBase: 5, RetryCap: 10, JitterPct: 1, Budget: 3,
		ProbeEvery: 50, Seed: 2,
		Suspected: func(peer int) bool { return peer == 1 && suspected },
	})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }

	if err := r.Send(1, []byte("parked")); err != nil {
		t.Fatal(err)
	}
	suspected = true // detector suspects the peer after the send
	advance(lb, 10)  // ack timeout fires -> frame parks, probe arms
	before := len(inner.sentTo(1))
	advance(lb, 1000) // many probe periods: budget must NOT burn
	if len(drops) != 0 {
		t.Fatalf("parked frame dropped while suspected: %v", drops)
	}
	// Probes DO transmit (that's what lets a false suspicion heal), but
	// at the degraded probe rate, not the full retry schedule: at most
	// one send per (SendTimeout + ProbeEvery) = 60-tick cycle.
	probeSends := len(inner.sentTo(1)) - before
	if probeSends == 0 {
		t.Fatal("no probe transmissions while suspected; suspicion could never heal")
	}
	if probeSends > 1000/50 {
		t.Fatalf("suspected peer flooded: %d sends in 1000 ticks", probeSends)
	}
	suspected = false
	// The next probe cycle retransmits at full service. Advance tick by
	// tick so the ack lands before the retry budget burns the frame.
	target := before + probeSends
	for i := 0; i < 120 && len(inner.sentTo(1)) == target; i++ {
		advance(lb, 1)
	}
	if got := len(inner.sentTo(1)); got <= target {
		t.Fatalf("parked frame not retransmitted after recovery: %d sends", got)
	}
	inner.ackLast(t, 1)
	if r.Stats().Acked.Load() != 1 {
		t.Fatal("recovered frame never acked")
	}
}

func TestResilientKickDrainsImmediately(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	suspected := true
	r := NewResilient(inner, lb.Clock(), Policy{
		ProbeEvery: 10_000, // probe alone would take ages
		Suspected:  func(peer int) bool { return peer == 1 && suspected },
	})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("waiting")); err != nil {
		t.Fatal(err)
	}
	if len(inner.sentTo(1)) != 0 {
		t.Fatal("transmitted while suspected")
	}
	suspected = false
	r.Kick(1)
	if len(inner.sentTo(1)) != 1 {
		t.Fatal("Kick did not drain the parked frame")
	}
}

func TestResilientDuplicateDeliveryReAcked(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{})
	var got int
	r.Handle(func(from int, frame []byte) { got++ })

	data := appendEnvelope(envData, 7, []byte("dup"))
	inner.deliver(1, data)
	inner.deliver(1, data) // retransmission of the same frame
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2 (at-least-once; dedup is the protocol's job)", got)
	}
	// Both copies must be acked: the peer's ack may have been the lost half.
	acks := 0
	for _, f := range inner.sentTo(1) {
		if f[0] == envAck {
			acks++
		}
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want 2", acks)
	}
}

func TestResilientStaleAckIgnored(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	inner.deliver(1, appendEnvelope(envAck, 999, nil)) // wrong seq
	if r.Stats().Acked.Load() != 0 {
		t.Fatal("stale ack completed the frame")
	}
	inner.ackLast(t, 1)
	if r.Stats().Acked.Load() != 1 {
		t.Fatal("real ack did not complete the frame")
	}
}

func TestResilientClosedSendErrors(t *testing.T) {
	inner := newMockInner(0, 2)
	r := NewResilient(inner, NewLoopback(0).Clock(), Policy{})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// TestResilientNoHandlerNoAck: a data frame that arrives before the
// Runtime installs its handler (a peer dials while a daemon is still
// starting) is neither delivered nor acked, so its sender retransmits
// it rather than losing it.
func TestResilientNoHandlerNoAck(t *testing.T) {
	inner := newMockInner(0, 2)
	r := NewResilient(inner, NewLoopback(0).Clock(), Policy{})
	inner.deliver(1, appendEnvelope(envData, 1, []byte("early")))
	if sent := inner.sentTo(1); len(sent) != 0 || r.Stats().Delivered.Load() != 0 {
		t.Fatalf("a frame with no handler: %d frames sent back, %d delivered; want no ack and no delivery", len(sent), r.Stats().Delivered.Load())
	}
}
