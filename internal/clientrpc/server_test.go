package clientrpc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer starts a server whose handler reflects the request key.
func echoServer(t *testing.T, opts ...Options) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", func(req Request) Response {
		return Response{OK: true, Val: req.Key}
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestServerRoundTrip(t *testing.T) {
	s := echoServer(t)
	c := NewClient(s.Addr())
	defer c.Close()
	for i := 0; i < 10; i++ {
		resp, err := c.Call(Request{Op: "get", Key: fmt.Sprintf("k%d", i)}, 2*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Val != fmt.Sprintf("k%d", i) {
			t.Fatalf("call %d echoed %v", i, resp.Val)
		}
	}
}

// TestServerPipelinedRequestsInOrder writes several requests in one
// burst and expects the responses back in request order: the per-conn
// pending queue must preserve FIFO even though workers are shared.
func TestServerPipelinedRequestsInOrder(t *testing.T) {
	s := echoServer(t)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const n = 20
	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, []byte(fmt.Sprintf("{\"op\":\"get\",\"key\":\"k%d\"}\n", i))...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bufio.NewReader(nc))
	for i := 0; i < n; i++ {
		var resp Response
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("k%d", i); resp.Val != want {
			t.Fatalf("response %d = %v, want %s (order violated)", i, resp.Val, want)
		}
	}
}

// TestServerPartialLineFraming dribbles one request across several
// writes; the reactor must assemble it across readiness events.
func TestServerPartialLineFraming(t *testing.T) {
	s := echoServer(t)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := []byte("{\"op\":\"get\",\"key\":\"dribble\"}\n")
	for _, b := range [][]byte{req[:7], req[7:15], req[15:]} {
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var resp Response
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewDecoder(nc).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Val != "dribble" {
		t.Fatalf("got %v", resp.Val)
	}
}

// TestServerServesFinalRequestBeforeClose: a client that writes a
// request and immediately closes (the fire-and-forget pattern) must
// still have that request served — the front end may learn of the
// hangup together with the buffered bytes and has to drain before
// retiring the connection.
func TestServerServesFinalRequestBeforeClose(t *testing.T) {
	handled := make(chan string, 8)
	s, err := NewServer("127.0.0.1:0", func(req Request) Response {
		handled <- req.Key
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("last%d", i)
		if _, err := fmt.Fprintf(nc, "{\"op\":\"put\",\"key\":%q}\n", key); err != nil {
			t.Fatal(err)
		}
		nc.Close() // no read-back: the close races the server's read
		select {
		case got := <-handled:
			if got != key {
				t.Fatalf("handled %q, want %q", got, key)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d written right before close was never served", i)
		}
	}
}

// TestServerMalformedLine: garbage gets an error response, and the
// connection stays usable for the next well-formed request.
func TestServerMalformedLine(t *testing.T) {
	s := echoServer(t)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("not json at all\n{\"op\":\"get\",\"key\":\"after\"}\n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bufio.NewReader(nc))
	var bad, good Response
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dec.Decode(&bad); err != nil {
		t.Fatal(err)
	}
	if bad.OK || bad.Err == "" {
		t.Fatalf("malformed line answered %+v, want error response", bad)
	}
	if err := dec.Decode(&good); err != nil {
		t.Fatal(err)
	}
	if !good.OK || good.Val != "after" {
		t.Fatalf("connection unusable after malformed line: %+v", good)
	}
}

// TestServerOversizedLineDropsConn: a request line past MaxLine kills
// the connection instead of buffering without bound.
func TestServerOversizedLineDropsConn(t *testing.T) {
	s := echoServer(t, Options{MaxLine: 1024})
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	junk := make([]byte, 64<<10) // no newline anywhere
	for i := range junk {
		junk[i] = 'x'
	}
	nc.Write(junk)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("oversized line did not drop the connection")
	}
}

// TestServerThousandIdleConnections pins what a parked connection
// costs, a goroutine and a read buffer each: heap plus stack for 1000
// of them (both ends are in this process, so the client sockets are in
// the figure too) stays within 16 KiB apiece.
func TestServerThousandIdleConnections(t *testing.T) {
	s := echoServer(t)
	inUse := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc + m.StackInuse
	}
	before := inUse()

	const idle = 1000
	conns := make([]net.Conn, 0, idle)
	defer func() {
		for _, nc := range conns {
			nc.Close()
		}
	}()
	for i := 0; i < idle; i++ {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, nc)
	}
	roundTrip := func(i int) {
		nc := conns[i]
		if _, err := fmt.Fprintf(nc, "{\"op\":\"get\",\"key\":\"c%d\"}\n", i); err != nil {
			t.Fatalf("conn %d write: %v", i, err)
		}
		var resp Response
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := json.NewDecoder(nc).Decode(&resp); err != nil {
			t.Fatalf("conn %d read: %v", i, err)
		}
		if resp.Val != fmt.Sprintf("c%d", i) {
			t.Fatalf("conn %d echoed %v", i, resp.Val)
		}
	}
	// Connections are accepted in dial order: a reply on the last one
	// means every one of them has its goroutine.
	roundTrip(idle - 1)
	perConn := int64(inUse()-before) / idle
	t.Logf("%d bytes of heap + stack per idle connection", perConn)
	if perConn > 16<<10 {
		t.Fatalf("an idle connection costs %d bytes, want at most %d", perConn, 16<<10)
	}

	// The parked connections are live, not just counted: round-trip on
	// a sample of them.
	for i := 0; i < idle; i += 100 {
		roundTrip(i)
	}
}

// TestServerWorkerPoolBounded pins the admission control: with
// MaxWorkers=4 and every handler blocked, exactly 4 handlers run;
// the rest of the load queues and completes after release.
func TestServerWorkerPoolBounded(t *testing.T) {
	const maxW, load = 4, 32
	var running atomic.Int32
	gate := make(chan struct{})
	s, err := NewServer("127.0.0.1:0", func(req Request) Response {
		running.Add(1)
		<-gate
		running.Add(-1)
		return Response{OK: true, Val: req.Key}
	}, Options{MaxWorkers: maxW})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conns := make([]net.Conn, load)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", s.Addr()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	send := func(i int) {
		if _, err := fmt.Fprintf(conns[i], "{\"op\":\"get\",\"key\":\"k%d\"}\n", i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Ramp one request at a time until the pool is saturated: each send
	// must start a fresh handler because all earlier ones are blocked.
	for i := 0; i < maxW; i++ {
		send(i)
		deadline := time.Now().Add(5 * time.Second)
		for running.Load() != int32(i+1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := running.Load(); got != int32(i+1) {
			t.Fatalf("after %d sends, %d handlers running", i+1, got)
		}
	}
	// Pile on the rest: the bound must hold.
	for i := maxW; i < load; i++ {
		send(i)
	}
	time.Sleep(300 * time.Millisecond)
	if got := running.Load(); got != maxW {
		t.Fatalf("pool bound violated: %d handlers running, want %d", got, maxW)
	}
	close(gate)

	// Every queued request still completes.
	var wg sync.WaitGroup
	errs := make(chan error, load)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp Response
			conns[i].SetReadDeadline(time.Now().Add(15 * time.Second))
			if err := json.NewDecoder(conns[i]).Decode(&resp); err != nil {
				errs <- fmt.Errorf("conn %d: %w", i, err)
				return
			}
			if resp.Val != fmt.Sprintf("k%d", i) {
				errs <- fmt.Errorf("conn %d echoed %v", i, resp.Val)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerCloseStopsListening: once Close returns nothing listens
// on the address any more, and a handler that is still blocked does not
// hold Close up.
func TestServerCloseStopsListening(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	s, err := NewServer("127.0.0.1:0", func(Request) Response {
		close(entered)
		<-gate
		return Response{OK: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("{\"op\":\"get\"}\n")); err != nil {
		t.Fatal(err)
	}
	<-entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waits for a blocked handler")
	}
	// Refused, not reset: a listener that is closed only once the dial
	// wakes its owner completes the handshake first.
	late, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err == nil {
		late.Close()
		t.Fatal("dial right after Close was accepted: the listener is still open")
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Fatalf("dial right after Close: %v, want connection refused", err)
	}
}

// TestClientReconnects: a server bounce mid-session is survived by
// the client's redial-on-error contract.
func TestClientReconnects(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()
	c := NewClient(addr)
	defer c.Close()
	if _, err := c.Call(Request{Op: "get", Key: "a"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Call(Request{Op: "get", Key: "b"}, time.Second); err == nil {
		t.Fatal("call against a closed server succeeded")
	}
	s2, err := NewServer(addr, func(req Request) Response {
		return Response{OK: true, Val: req.Key}
	})
	if err != nil {
		t.Skipf("rebind %s: %v", addr, err)
	}
	defer s2.Close()
	var last error
	for i := 0; i < 20; i++ {
		if _, last = c.Call(Request{Op: "get", Key: "c"}, time.Second); last == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if last != nil {
		t.Fatalf("client did not recover after rebind: %v", last)
	}
}
