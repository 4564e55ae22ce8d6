package transport

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// port, and checks the surviving side's dial-on-demand reconnects.
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

	// Sends now fail (maybe not the very first: a write into a dead
	// socket can succeed before the RST comes back). Eventually they
	// error, and the connection is torn down for re-dial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := t0.Send(1, []byte("into the void")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a dead peer never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on the same port.
	t1b, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatalf("restart on %s: %v", port, err)
	}
	defer t1b.Close()
	var c2 collector
	t1b.Handle(c2.handler)

	// The survivor re-dials on demand; retry until it lands.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if err := t0.Send(1, []byte("after restart")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconnect never succeeded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := c2.waitLen(t, 1)
	if got[len(got)-1] != "after restart" {
		t.Fatalf("post-restart delivery: %q", got)
	}
}

// TestTCPResilientSurvivesRestart layers Resilient over TCP and checks
// a frame sent while the peer is down is retried, on each refused dial,
// until the peer comes back — no caller-visible error at all.
func TestTCPResilientSurvivesRestart(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t0, err := NewTCP(0, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCP(1, addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0.SetPeerAddr(1, t1.Addr())
	t1.SetPeerAddr(0, t0.Addr())
	clock := NewRealClock(time.Millisecond)
	r0 := NewResilient(t0, clock, Policy{RetryBase: 10, RetryCap: 100, Budget: 200})
	defer r0.Close()
	r0.Handle(func(int, []byte) {})

	port := t1.Addr()
	t1.Close() // peer dead before the send

	if err := r0.Send(1, []byte("patient frame")); err != nil {
		t.Fatalf("resilient send must queue, not fail: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // a few failed attempts

	t1b, err := NewTCP(1, []string{t0.Addr(), port}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()
	r1 := NewResilient(t1b, clock, Policy{})
	defer r1.Close()
	var c collector
	r1.Handle(c.handler)

	got := c.waitLen(t, 1)
	if got[0] != "patient frame" {
		t.Fatalf("delivered %q", got[0])
	}
	if r0.Stats().Retries.Load() == 0 {
		t.Fatal("expected at least one retry while the peer was down")
	}
}

// TestTCPResilientConcurrentSenders drives one Resilient link from
// several goroutines while a third party flips the peer's suspicion and
// kicks the link: every frame arrives, and each sender's frames arrive
// in the order it sent them (one queue per link, one connection).
func TestTCPResilientConcurrentSenders(t *testing.T) {
	t0, t1 := newTCPPair(t)
	clock := NewRealClock(time.Millisecond)
	const senders, each = 4, 100
	var suspected atomic.Bool
	r0 := NewResilient(t0, clock, Policy{
		QueueCap:  senders * each, // parking, not shedding, is under test
		Suspected: func(int) bool { return suspected.Load() },
	})
	r1 := NewResilient(t1, clock, Policy{})
	var c collector
	r1.Handle(c.handler)

	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for {
			select {
			case <-stop:
				suspected.Store(false)
				r0.Kick(1)
				return
			default:
			}
			suspected.Store(!suspected.Load())
			r0.Kick(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := r0.Send(1, []byte(fmt.Sprintf("%d:%d", g, i))); err != nil {
					t.Errorf("sender %d frame %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipped

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
