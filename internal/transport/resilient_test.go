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
// the test injects deliveries itself.
type mockInner struct {
	self, n int

	mu    sync.Mutex
	h     Handler
	sent  map[int][][]byte
	tries map[int]int   // Send calls per peer, refused ones included
	fail  map[int]error // synchronous Send error per peer
}

func newMockInner(self, n int) *mockInner {
	return &mockInner{self: self, n: n, sent: map[int][][]byte{}, tries: map[int]int{}, fail: map[int]error{}}
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
	m.tries[to]++
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

func (m *mockInner) triesTo(to int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tries[to]
}

// setFail makes every Send to peer fail with err (nil: succeed).
func (m *mockInner) setFail(peer int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		delete(m.fail, peer)
	} else {
		m.fail[peer] = err
	}
}

// The policy tests drive Resilient from a node-less Loopback: its Clock
// fires timers, in (time, arm-order) order, only inside Run, so a link
// steps through refusal -> backoff -> retry cycles deterministically
// without sleeping.

// advance moves lb's clock d ticks on, firing every timer due on the way
// (including those armed by the callbacks it fires).
func advance(lb *Loopback, d amp.Time) { lb.Run(lb.Now() + d) }

// nextSendTick steps lb one tick at a time until inner has been asked
// once more to send to peer 1, and returns the tick that happened at:
// the retry schedule read off the send log.
func nextSendTick(t *testing.T, lb *Loopback, inner *mockInner) amp.Time {
	t.Helper()
	n := inner.triesTo(1)
	for i := 0; i < 10_000; i++ {
		advance(lb, 1)
		if inner.triesTo(1) > n {
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

// TestResilientSendsNoAcks: an idle link hands each frame straight to
// the inner transport, k sends make exactly k inner frames with no
// delivery or tick in between (no stop-and-wait), and a frame that
// arrives is delivered with nothing sent in reply.
func TestResilientSendsNoAcks(t *testing.T) {
	inner := newMockInner(0, 2)
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{})
	var got []string
	r.Handle(func(from int, frame []byte) { got = append(got, string(frame)) })

	const k = 5
	for i := 0; i < k; i++ {
		if err := r.Send(1, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	frames := inner.sentTo(1)
	if len(frames) != k {
		t.Fatalf("inner frames after %d sends: %d, want %d (one frame per send, none waiting on a reply)", k, len(frames), k)
	}
	for i, f := range frames {
		if !bytes.Equal(f, []byte{byte('a' + i)}) {
			t.Fatalf("inner frame %d = %q, want the payload unchanged", i, f)
		}
	}
	if r.QueueLen(1) != 0 || r.Stats().Sent.Load() != k {
		t.Fatalf("QueueLen = %d, Sent = %d; want 0, %d", r.QueueLen(1), r.Stats().Sent.Load(), k)
	}

	inner.deliver(1, []byte("from peer"))
	if len(got) != 1 || got[0] != "from peer" {
		t.Fatalf("delivered %q", got)
	}
	advance(lb, 10_000)
	if n := inner.triesTo(1); n != k {
		t.Fatalf("inner sends to peer 1 after a delivery and 10000 ticks: %d, want %d (no reply, no retransmission)", n, k)
	}
}

// TestResilientJitteredBackoffWithinBounds: each retry of a refused
// frame goes out a backoff within +/-25% of the capped exponential
// schedule after the attempt before it.
func TestResilientJitteredBackoffWithinBounds(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.setFail(1, fmt.Errorf("connection refused"))
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{RetryBase: 100, RetryCap: 800, JitterPct: 25, Budget: 100, Seed: 9})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
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
		d := int64(nextSendTick(t, lb, inner) - sent)
		if d < int64(base)-span || d > int64(base)+span {
			t.Fatalf("attempt %d: backoff %d outside [%d, %d]", attempt, d, int64(base)-span, int64(base)+span)
		}
	}
	if got := r.Stats().Retries.Load(); got != 8 {
		t.Fatalf("Retries = %d, want 8", got)
	}
}

// TestResilientBudgetExhaustion: a frame the inner transport refuses
// Budget times is dropped with a *RetryError, and the frame queued
// behind it then gets its own full budget.
func TestResilientBudgetExhaustion(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.setFail(1, fmt.Errorf("connection refused"))
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{RetryBase: 10, RetryCap: 20, JitterPct: 1, Budget: 3, Seed: 1})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }

	if err := r.Send(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(1, []byte("next")); err != nil {
		t.Fatal(err) // queues behind the refused frame
	}
	if r.QueueLen(1) != 2 || inner.triesTo(1) != 1 {
		t.Fatalf("QueueLen = %d, tries = %d; want 2, 1 (the queued frame waits behind the refused one)", r.QueueLen(1), inner.triesTo(1))
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
	if r.Stats().Dropped.Load() != 2 || r.QueueLen(1) != 0 {
		t.Fatalf("Dropped = %d, QueueLen = %d; want 2, 0", r.Stats().Dropped.Load(), r.QueueLen(1))
	}
	// The queued frame advanced into transmission after the drop and
	// spent its own budget.
	if n := inner.triesTo(1); n != 6 {
		t.Fatalf("inner attempts = %d, want 6 (3 per frame)", n)
	}
}

func TestResilientSynchronousSendErrorRetries(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.setFail(1, fmt.Errorf("connection refused"))
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{RetryBase: 5, RetryCap: 10, JitterPct: 1, Budget: 3, Seed: 1})
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
// attempt (not listening yet) gets the frame one backoff later, not a
// second backoff's worth — a deployment's first quorum waits on this
// when its processes start a millisecond apart.
func TestResilientRefusedSendWaitsOneBackoff(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.setFail(1, fmt.Errorf("connection refused"))
	lb := NewLoopback(0)
	r := NewResilient(inner, lb.Clock(), Policy{RetryBase: 10, RetryCap: 250, JitterPct: -1, Seed: 1})
	r.Handle(func(int, []byte) {})
	if err := r.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t0 := lb.Now()
	inner.setFail(1, nil)
	if at := nextSendTick(t, lb, inner); at-t0 != 10 {
		t.Fatalf("refused frame re-sent %d ticks later, want one RetryBase (10)", at-t0)
	}
	if got := inner.sentTo(1); len(got) != 1 || string(got[0]) != "x" {
		t.Fatalf("inner frames after the retry: %q", got)
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

// TestResilientSuspectedParksThenRecovers: frames sent to a suspected
// peer park; while the suspicion lasts, probes try one frame per
// ProbeEvery and a refusal burns no budget; once it retracts, the next
// probe drains the rest in order.
func TestResilientSuspectedParksThenRecovers(t *testing.T) {
	inner := newMockInner(0, 2)
	inner.setFail(1, fmt.Errorf("connection refused")) // the peer is down
	lb := NewLoopback(0)
	suspected := true
	r := NewResilient(inner, lb.Clock(), Policy{
		RetryBase: 5, RetryCap: 10, JitterPct: 1, Budget: 3,
		ProbeEvery: 50, Seed: 2,
		Suspected: func(peer int) bool { return peer == 1 && suspected },
	})
	r.Handle(func(int, []byte) {})
	var drops []error
	r.OnDrop = func(to int, err error) { drops = append(drops, err) }

	const frames = 30
	for i := 0; i < frames; i++ {
		if err := r.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.QueueLen(1) != frames || inner.triesTo(1) != 0 {
		t.Fatalf("QueueLen = %d, tries = %d; want %d parked and none tried", r.QueueLen(1), inner.triesTo(1), frames)
	}
	advance(lb, 1000) // many probe periods, every probe refused
	if len(drops) != 0 {
		t.Fatalf("parked frame dropped while suspected: %v", drops)
	}
	// Probes DO try (that's what lets a false suspicion heal), but at the
	// degraded probe rate, not the full retry schedule.
	tries := inner.triesTo(1)
	if tries == 0 {
		t.Fatal("no probe attempts while suspected; suspicion could never heal")
	}
	if tries > 1000/50 {
		t.Fatalf("suspected peer flooded: %d attempts in 1000 ticks", tries)
	}

	inner.setFail(1, nil) // the peer is back, still suspected
	advance(lb, 500)
	if n := len(inner.sentTo(1)); n == 0 || n > 500/50 {
		t.Fatalf("%d frames went in 500 ticks of suspicion, want 1..%d (one per probe)", n, 500/50)
	}

	suspected = false
	advance(lb, 50) // the next probe drains the rest
	got := inner.sentTo(1)
	if len(got) != frames || r.QueueLen(1) != 0 || len(drops) != 0 {
		t.Fatalf("after recovery: %d frames sent, %d queued, %d dropped; want %d, 0, 0", len(got), r.QueueLen(1), len(drops), frames)
	}
	for i, f := range got {
		if len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d = %v: parked frames went out of order", i, f)
		}
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

// TestResilientNoHandlerDropped: a frame that arrives before Handle (a
// peer dials while a daemon is still starting) is counted in Dropped,
// not delivered; the protocols recover it like any lost frame.
func TestResilientNoHandlerDropped(t *testing.T) {
	inner := newMockInner(0, 2)
	r := NewResilient(inner, NewLoopback(0).Clock(), Policy{})
	inner.deliver(1, []byte("early"))
	if r.Stats().Dropped.Load() != 1 || r.Stats().Delivered.Load() != 0 {
		t.Fatalf("a frame with no handler: Dropped = %d, Delivered = %d; want 1, 0", r.Stats().Dropped.Load(), r.Stats().Delivered.Load())
	}
	var got []string
	r.Handle(func(_ int, frame []byte) { got = append(got, string(frame)) })
	inner.deliver(1, []byte("late"))
	if len(got) != 1 || got[0] != "late" || r.Stats().Delivered.Load() != 1 {
		t.Fatalf("after Handle: delivered %q, Delivered = %d", got, r.Stats().Delivered.Load())
	}
	if n := inner.triesTo(1); n != 0 {
		t.Fatalf("%d frames sent back, want none", n)
	}
}
