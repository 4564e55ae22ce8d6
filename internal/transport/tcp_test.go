package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// newTCPPair builds two connected TCP endpoints on ephemeral localhost
// ports.
func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t0, err := NewTCP(0, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(1, addrs, TCPOptions{})
	if err != nil {
		t0.Close()
		t.Fatal(err)
	}
	t0.SetPeerAddr(1, t1.Addr())
	t1.SetPeerAddr(0, t0.Addr())
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

// collector gathers deliveries thread-safely.
type collector struct {
	mu     sync.Mutex
	frames []string
	froms  []int
}

func (c *collector) handler(from int, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, string(frame))
	c.froms = append(c.froms, from)
	c.mu.Unlock()
}

func (c *collector) waitLen(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.frames) >= n {
			out := append([]string(nil), c.frames...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// snapshot returns the frames delivered so far.
func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...)
}

func TestTCPRoundTrip(t *testing.T) {
	t0, t1 := newTCPPair(t)
	var c0, c1 collector
	t0.Handle(c0.handler)
	t1.Handle(c1.handler)

	if err := t0.Send(1, []byte("zero to one")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(0, []byte("one to zero")); err != nil {
		t.Fatal(err)
	}
	got1 := c1.waitLen(t, 1)
	got0 := c0.waitLen(t, 1)
	if got1[0] != "zero to one" || got0[0] != "one to zero" {
		t.Fatalf("got %q / %q", got1, got0)
	}
	if c1.froms[0] != 0 || c0.froms[0] != 1 {
		t.Fatalf("from ids: %v / %v", c1.froms, c0.froms)
	}
}

func TestTCPSelfSend(t *testing.T) {
	t0, _ := newTCPPair(t)
	var c collector
	t0.Handle(c.handler)
	if err := t0.Send(0, []byte("to myself")); err != nil {
		t.Fatal(err)
	}
	got := c.waitLen(t, 1)
	if got[0] != "to myself" || c.froms[0] != 0 {
		t.Fatalf("self delivery: %q from %d", got[0], c.froms[0])
	}
}

func TestTCPManyFramesInOrder(t *testing.T) {
	t0, t1 := newTCPPair(t)
	var c collector
	t1.Handle(c.handler)
	const total = 200
	for i := 0; i < total; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%64)
		if err := t0.Send(1, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := c.waitLen(t, total)
	// One TCP connection: order is preserved.
	for i := 0; i < total; i++ {
		want := string(bytes.Repeat([]byte{byte(i)}, 1+i%64))
		if got[i] != want {
			t.Fatalf("frame %d out of order or corrupt", i)
		}
	}
}

// TestTCPReconnectAfterPeerRestart kills one endpoint (closing its
// listener and connections, as SIGKILL would), restarts it on the same
// port, and checks the surviving side's writer notices the dead
// connection, redials, and delivers to the new incarnation.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t0, err := NewTCP(0, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := NewTCP(1, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0.SetPeerAddr(1, t1.Addr())
	t1.SetPeerAddr(0, t0.Addr())
	var c collector
	t1.Handle(c.handler)
	if err := t0.Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	c.waitLen(t, 1)

	// "kill -9": the peer vanishes.
	port := t1.Addr()
	t1.Close()

	// Sends still succeed: they only buffer. A write into the dead
	// socket can succeed before the RST comes back; a later one fails,
	// and the writer drops its batch and redials, refused.
	deadline := time.Now().Add(5 * time.Second)
	for t0.Stats().Retries.Load() == 0 {
		if err := t0.Send(1, []byte("into the void")); err != nil {
			t.Fatalf("send to a dead peer: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer never noticed the dead peer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on the same port; the writer's next redial lands.
	t1b, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatalf("restart on %s: %v", port, err)
	}
	defer t1b.Close()
	var c2 collector
	t1b.Handle(c2.handler)
	if err := t0.Send(1, []byte("after restart")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		c2.mu.Lock()
		n := len(c2.frames)
		last := ""
		if n > 0 {
			last = c2.frames[n-1]
		}
		c2.mu.Unlock()
		if last == "after restart" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart delivery: %d frames, last %q", n, last)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// downPeer returns endpoint 0 of a two-endpoint TCP pair whose peer 1
// was started and closed, so dials to it are refused, and the port the
// peer listened on, for restarting it.
func downPeer(t *testing.T) (*TCP, string) {
	t.Helper()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t0, err := NewTCP(0, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close() })
	t1, err := NewTCP(1, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	port := t1.Addr()
	t1.Close()
	t0.SetPeerAddr(1, port)
	return t0, port
}

// waitRetries waits until t's writers have redialled at least n times.
func waitRetries(t *testing.T, tr *TCP, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Retries.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d redials after 5 s, want %d", tr.Stats().Retries.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPResilientSurvivesRestart layers Resilient over TCP, as the
// bench/ clusters do, with the peer dead before the sends: no Send
// reports an error, TCP's writer redials while the dials are refused,
// and the frames arrive, in order, once the peer listens again.
func TestTCPResilientSurvivesRestart(t *testing.T) {
	t0, port := downPeer(t)
	clock := NewRealClock(time.Millisecond)
	r0 := NewResilient(t0, clock, Policy{RetryBase: 10, RetryCap: 100})
	r0.Handle(func(int, []byte) {})

	want := []string{"patient", "frames", "in order"}
	for _, f := range want {
		if err := r0.Send(1, []byte(f)); err != nil {
			t.Fatalf("send must buffer, not fail: %v", err)
		}
	}
	waitRetries(t, t0, 1)

	t1b, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()
	r1 := NewResilient(t1b, clock, Policy{})
	var c collector
	r1.Handle(c.handler)
	if got := c.waitLen(t, len(want)); !slices.Equal(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// TestResilientRefusedSendWaitsOneBackoff: a frame sent through
// Resilient over TCP to a peer that refuses the dial waits in the
// buffer. Each refusal costs one backoff, not a busy redial, and once
// the peer listens the frame goes out on the writer's next dial.
func TestResilientRefusedSendWaitsOneBackoff(t *testing.T) {
	t0, port := downPeer(t)
	r0 := NewResilient(t0, NewRealClock(time.Millisecond), Policy{})
	r0.Handle(func(int, []byte) {})

	start := time.Now()
	if err := r0.Send(1, []byte("x")); err != nil {
		t.Fatalf("send to a refusing peer: %v", err)
	}
	// The third dial follows two refusals and the two backoffs after
	// them; a slow host only makes it later.
	waitRetries(t, t0, 2)
	backoffs := amp.Backoff(redialBase, redialCap, -1, 1, nil) + amp.Backoff(redialBase, redialCap, -1, 2, nil)
	if waited := time.Since(start); waited < time.Duration(backoffs)*time.Millisecond {
		t.Fatalf("third dial %v after the send, before two backoffs (%d ms)", waited, backoffs)
	}

	t1b, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()
	// Every dial that starts after this read finds the peer listening.
	redials := t0.Stats().Retries.Load()
	up := time.Now()
	var c collector
	t1b.Handle(c.handler)
	if got := c.waitLen(t, 1); got[0] != "x" {
		t.Fatalf("delivered %q", got)
	}
	if after := t0.Stats().Retries.Load(); after > redials+1 {
		t.Fatalf("%d redials after the peer listened, want at most one", after-redials)
	}
	if waited := time.Since(up); waited > time.Duration(redialCap)*time.Millisecond {
		t.Fatalf("delivered %v after the peer listened, more than one capped backoff", waited)
	}
}

// TestResilientSynchronousSendErrorRetries: a peer that reads each
// connection's hello and then resets it makes the writer's writes fail.
// Through Resilient over TCP no Send reports that failure; the writer
// closes the connection and redials, once per failed write, and frames
// sent once a real endpoint listens on the port are delivered.
func TestResilientSynchronousSendErrorRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().String()
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		hello := make([]byte, FrameOverhead+4)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.SetReadDeadline(time.Now().Add(time.Second))
			io.ReadFull(conn, hello)
			conn.(*net.TCPConn).SetLinger(0) // Close sends a reset
			conn.Close()
		}
	}()
	defer func() { ln.Close(); <-done }()

	t0, err := NewTCP(0, []string{"127.0.0.1:0", port}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	r0 := NewResilient(t0, NewRealClock(time.Millisecond), Policy{})
	r0.Handle(func(int, []byte) {})

	// A write into a reset connection can succeed before the reset comes
	// back; a later one fails, and the writer redials, which the peer
	// accepts. So every redial here follows a failed write.
	deadline := time.Now().Add(5 * time.Second)
	for t0.Stats().Retries.Load() < 2 {
		if err := r0.Send(1, []byte("into the reset")); err != nil {
			t.Fatalf("send to a resetting peer: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d redials after 5 s of failed writes, want 2", t0.Stats().Retries.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := accepted.Load(); n < 2 {
		t.Fatalf("peer accepted %d connections, want one per redial", n)
	}
	ln.Close()
	<-done

	t1, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatalf("listen on %s: %v", port, err)
	}
	defer t1.Close()
	var c collector
	t1.Handle(c.handler)
	// The writer may still hold the last reset connection: the write on
	// it fails and loses its batch, as any write the reset cuts does, and
	// the redial after it reaches t1. A frame sent into the resets may
	// still be buffered and arrive first.
	deadline = time.Now().Add(5 * time.Second)
	for !slices.Contains(c.snapshot(), "after the resets") {
		if err := r0.Send(1, []byte("after the resets")); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after the resets in 5 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPConcurrentSenders drives one peer's buffer from several
// goroutines: every frame arrives, and each sender's frames arrive in
// the order it sent them (one buffer and one connection per peer).
func TestTCPConcurrentSenders(t *testing.T) {
	t0, t1 := newTCPPair(t)
	const senders, each = 4, 100
	var c collector
	t1.Handle(c.handler)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := t0.Send(1, []byte(fmt.Sprintf("%d:%d", g, i))); err != nil {
					t.Errorf("sender %d frame %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := c.waitLen(t, senders*each)
	next := make([]int, senders)
	for _, f := range got {
		var g, i int
		if _, err := fmt.Sscanf(f, "%d:%d", &g, &i); err != nil {
			t.Fatalf("frame %q: %v", f, err)
		}
		if i != next[g] {
			t.Fatalf("sender %d: frame %d arrived when %d was next", g, i, next[g])
		}
		next[g]++
	}
}

// stalledPeer is a listener that accepts connections and never reads
// from them: a peer that is stopped, or whose handler never returns.
func stalledPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// TestTCPSendNeverBlocksActor: a Runtime sends an 8 KB message to a
// peer that accepts and never reads, every turn for 10 s. Once the
// socket and the peer's buffer are full, every further frame is refused
// and counted as shed, and no turn waits on the socket. Before the
// writer, a send wrote on the caller, and a turn stalled for the write
// timeout (500 ms) each time the socket filled. The bound on the slowest
// turn is stall, not 1 ms: on a 2-core host, turns of a Runtime sending
// 16 KB messages to a transport that discards every frame already reach
// 12 ms (GC and scheduling), so the typical turn is what is held to 1 ms.
func TestTCPSendNeverBlocksActor(t *testing.T) {
	const stall = 100 * time.Millisecond
	amp.RegisterWire(Register)
	rsm.RegisterWire(Register)
	tr, err := NewTCP(0, []string{"127.0.0.1:0", stalledPeer(t)}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rt := NewRuntime(tr, NewRealClock(0), &orderProc{})
	rt.Start()
	msg := rsm.Command{Op: "pad", Val: strings.Repeat("x", 8<<10)}
	var took []time.Duration
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		t0 := time.Now()
		rt.Do(func(ctx amp.Context) { ctx.Send(1, msg) })
		took = append(took, time.Since(t0))
		time.Sleep(100 * time.Microsecond)
	}
	slices.Sort(took)
	turns, median, worst := uint64(len(took)), took[len(took)/2], took[len(took)-1]
	st := tr.Stats()
	sent, shed := st.Sent.Load(), st.Shed.Load()
	t.Logf("%d turns: median %v, slowest %v; %d frames sent, %d shed", turns, median, worst, sent, shed)
	if worst >= stall || median >= time.Millisecond {
		t.Fatalf("turns took %v (median) and %v (slowest), want under 1ms and %v", median, worst, stall)
	}
	if shed == 0 || sent+shed != turns || rt.SendErrs.Load() != shed {
		t.Fatalf("%d turns: sent %d, shed %d, runtime send errors %d; want sheds beyond the buffer, each counted once", turns, sent, shed, rt.SendErrs.Load())
	}
}

// TestTCPCloseStopsWriters: Close stops every writer — idle, backing
// off from a refused dial, or blocked writing to a peer that does not
// read — and the goroutine count returns to where it was; a Send after
// Close returns ErrClosed.
func TestTCPCloseStopsWriters(t *testing.T) {
	base := runtime.NumGoroutine()
	stalled := stalledPeer(t)
	dead, err := NewTCP(0, []string{"127.0.0.1:0"}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	tr, err := NewTCP(0, []string{"127.0.0.1:0", stalled, deadAddr}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64<<10)
	for i := 0; i < 200; i++ { // 13 MB: more than the socket and the buffer take
		tr.Send(1, frame)
	}
	tr.Send(0, frame)
	tr.Send(2, frame)
	for tr.Stats().Retries.Load() == 0 { // peer 2's writer is backing off
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	tr.Close()
	if took := time.Since(t0); took >= 250*time.Millisecond {
		t.Fatalf("Close took %v: a blocked write was not cut", took)
	}
	if err := tr.Send(1, frame); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+1 { // the stalled peer's accept loop
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
