package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"distbasics/internal/amp"
)

// TCP is the real-socket backend: length-prefixed binary frames
// (codec.go), one outbound connection per peer. Connections are simplex
// — each endpoint dials its own outbound connection per peer and
// identifies itself with a hello frame, while inbound connections are
// read-only — so reconnecting after a peer death is purely a sender-side
// decision. A frame to self takes the same path, over a connection to
// this endpoint's own listener.
//
// Send never touches the network: it frames into the peer's bounded
// buffer and returns, or returns a counted *ShedError when the buffer is
// full. One writer goroutine per peer owns that peer's connection. It
// dials as soon as it has frames to send, redials a refused dial after
// amp.Backoff(redialBase, redialCap), and hands everything buffered to
// one writev. A peer that stops reading is waited for, not cut off; a
// failed write (the peer's reset) closes the connection and loses its
// batch, and what is buffered after it goes out on the next connection.
// So a frame is delivered at most once, a connection's frames arrive in
// order, and a peer that is starting or restarting gets what was
// buffered for it once it listens. Recovering lost frames is the
// protocols' job.
type TCP struct {
	self  int
	addrs []string
	ln    net.Listener
	stats Stats
	peers []*tcpPeer

	// ctx is cancelled by Close: it refuses Sends and stops the
	// writers' dials and backoffs.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	h       Handler
	inbound map[net.Conn]struct{}

	wg sync.WaitGroup
}

// TCPOptions is empty — the backend's timeouts and bounds are the
// constants below and DefaultMaxFrame. The type and NewTCP's parameter
// exist only because the frozen bench/ passes TCPOptions{}.
type TCPOptions struct{}

const (
	dialTimeout = 500 * time.Millisecond // connection establishment, hello included
	// redialBase and redialCap, in milliseconds, are the redial curve: a
	// refused dial waits 20 ms, doubling per refusal to 500 ms. A peer
	// started a few milliseconds after its sender is reached after one
	// backoff; a dead one costs two dials a second.
	redialBase, redialCap amp.Time = 20, 500
	// sendBufCap bounds one peer's framed bytes, waiting and being
	// written. 4 MiB holds four frames of DefaultMaxFrame, or ~20k of
	// the few-hundred-byte frames the protocols send: a reading peer
	// keeps the buffer near empty, so the bound only ever binds on a
	// peer that stopped reading, and caps what that peer costs its
	// sender's memory.
	sendBufCap = 4 << 20
)

// tcpPeer is one peer's outbound side: the frames Send framed for it
// and the connection its writer owns.
type tcpPeer struct {
	ready chan struct{} // capacity 1: a token when frames turns non-empty

	mu       sync.Mutex
	frames   [][]byte // framed, not yet taken by the writer
	queued   int      // bytes in frames
	inflight int      // bytes in the batch the writer holds
	conn     net.Conn // the writer's connection, so Close can cut a write
}

// NewTCP returns a TCP transport for endpoint self of the given peer
// address list, listening on addrs[self].
func NewTCP(self int, addrs []string, _ TCPOptions) (*TCP, error) {
	validatePeer(self, len(addrs))
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	t := &TCP{
		self:    self,
		addrs:   append([]string(nil), addrs...),
		ln:      ln,
		peers:   make([]*tcpPeer, len(addrs)),
		inbound: make(map[net.Conn]struct{}),
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	t.wg.Add(1 + len(addrs))
	go t.acceptLoop()
	for i := range t.peers {
		t.peers[i] = &tcpPeer{ready: make(chan struct{}, 1)}
		go t.writeLoop(i)
	}
	return t, nil
}

// Addr returns the bound listen address (resolves ":0" test configs).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeerAddr updates peer i's dial address — used by tests and
// orchestrators that bind ephemeral ports and only learn the real
// addresses after every listener is up. Takes effect on the next dial.
func (t *TCP) SetPeerAddr(i int, addr string) {
	validatePeer(i, t.N())
	t.mu.Lock()
	t.addrs[i] = addr
	t.mu.Unlock()
}

func (t *TCP) peerAddr(i int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[i]
}

// Self implements Transport.
func (t *TCP) Self() int { return t.self }

// N implements Transport.
func (t *TCP) N() int { return len(t.addrs) }

// Stats returns the backend's counters: Sent counts frames Send
// accepted, Shed those it refused at a full buffer, Retries the
// writers' redials, Delivered the frames handed to the handler.
func (t *TCP) Stats() *Stats { return &t.stats }

// Handle implements Transport.
func (t *TCP) Handle(h Handler) {
	t.mu.Lock()
	t.h = h
	t.mu.Unlock()
}

func (t *TCP) handler() Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

// Send implements Transport: it frames into peer to's buffer and wakes
// the peer's writer. It never blocks on the network; a frame that would
// take the peer's buffered bytes past sendBufCap is refused with a
// *ShedError.
func (t *TCP) Send(to int, frame []byte) error {
	validatePeer(to, t.N())
	if t.ctx.Err() != nil {
		return ErrClosed
	}
	framed, err := AppendFrame(make([]byte, 0, FrameOverhead+len(frame)), frame, DefaultMaxFrame)
	if err != nil {
		return err
	}
	p := t.peers[to]
	p.mu.Lock()
	if held := p.inflight + p.queued; held+len(framed) > sendBufCap {
		p.mu.Unlock()
		t.stats.Shed.Add(1)
		return &ShedError{To: to, Buffered: held}
	}
	wake := len(p.frames) == 0
	p.frames = append(p.frames, framed)
	p.queued += len(framed)
	p.mu.Unlock()
	t.stats.Sent.Add(1)
	if wake {
		select {
		case p.ready <- struct{}{}:
		default:
		}
	}
	return nil
}

// take hands the writer every frame buffered and takes back the batch
// it has finished with, to refill.
func (p *tcpPeer) take(done [][]byte) [][]byte {
	clear(done)
	p.mu.Lock()
	defer p.mu.Unlock()
	batch := p.frames
	p.frames, p.inflight, p.queued = done[:0], p.queued, 0
	return batch
}

// setConn records the writer's connection; false, with conn closed,
// once the transport has closed.
func (t *TCP) setConn(p *tcpPeer, conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if conn != nil && t.ctx.Err() != nil {
		conn.Close()
		return false
	}
	p.conn = conn
	return true
}

// writeLoop is peer to's writer: it waits for buffered frames, dials if
// it has no connection, and writes each batch with one writev(2). A
// peer that stops reading is waited for, not cut off: its frames are
// shed at the buffer meanwhile. Only an error the kernel reports (the
// peer's reset, or TCP giving up) closes the connection.
func (t *TCP) writeLoop(to int) {
	defer t.wg.Done()
	p := t.peers[to]
	var conn net.Conn
	var batch [][]byte
	dialed := false
	for {
		select {
		case <-p.ready:
		case <-t.ctx.Done():
			return
		}
		for batch = p.take(batch); len(batch) > 0; batch = p.take(batch) {
			for attempt := 1; conn == nil; attempt++ {
				if dialed {
					t.stats.Retries.Add(1)
				}
				dialed = true
				c, err := t.dial(to)
				if err != nil {
					select {
					case <-time.After(time.Duration(amp.Backoff(redialBase, redialCap, -1, attempt, nil)) * time.Millisecond):
					case <-t.ctx.Done():
						return
					}
					continue
				}
				if !t.setConn(p, c) {
					return
				}
				conn = c
			}
			bufs := net.Buffers(batch)
			if _, err := bufs.WriteTo(conn); err != nil {
				t.setConn(p, nil)
				conn.Close()
				conn = nil
			}
		}
	}
}

// dial opens the outbound connection to peer `to` and sends the hello
// frame identifying this endpoint. Self is dialled at the bound
// address, since addrs[self] may name port 0.
func (t *TCP) dial(to int) (net.Conn, error) {
	addr := t.Addr()
	if to != t.self {
		addr = t.peerAddr(to)
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(t.ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial peer %d (%s): %w", to, addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(t.self))
	buf, _ := AppendFrame(nil, hello[:], DefaultMaxFrame)
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello to peer %d: %w", to, err)
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// acceptLoop serves inbound (read-only) connections.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.ctx.Err() != nil {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop reads the hello, then delivers frames until the connection
// dies.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hello, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil || len(hello) != 4 {
		return
	}
	from := int(binary.BigEndian.Uint32(hello))
	if from < 0 || from >= t.N() {
		return
	}
	conn.SetReadDeadline(time.Time{})
	for {
		payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			return
		}
		if h := t.handler(); h != nil {
			t.stats.Delivered.Add(1)
			h(from, payload)
		}
	}
}

// Close implements Transport: it stops the listener, the readers and
// every writer, cutting a write in progress; buffered frames are lost.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.ctx.Err() != nil {
		t.mu.Unlock()
		return nil
	}
	t.cancel()
	t.h = nil
	for conn := range t.inbound {
		conn.Close()
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, p := range t.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
