package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP is the real-socket backend: length-prefixed binary frames
// (codec.go) over a per-destination connection pool. Connections are
// simplex — each endpoint dials its own outbound connection per peer
// and identifies itself with a hello frame, while inbound connections
// are read-only — so reconnecting after a peer death is purely a
// sender-side decision: the next Send re-dials. A frame to self takes
// the same path, over a connection to this endpoint's own listener.
// TCP makes no delivery or retry promises beyond the kernel's: it
// delivers a connection's frames in order, and those written into a
// connection that dies are lost. Wrap with Resilient for the
// robustness contract: a peer killed with SIGKILL looks like dial and
// write errors, which Resilient turns into backoff, fd degradation, and
// recovery once the peer restarts and its listener rebinds.
type TCP struct {
	self  int
	addrs []string
	ln    net.Listener
	stats Stats

	mu      sync.Mutex
	h       Handler
	closed  bool
	peers   []*tcpPeer
	inbound map[net.Conn]struct{}

	wg sync.WaitGroup
}

// TCPOptions is empty — the backend's timeouts and bounds are the
// constants below and DefaultMaxFrame. The type and NewTCP's parameter
// exist only because the frozen bench/ passes TCPOptions{}.
type TCPOptions struct{}

const (
	dialTimeout  = 500 * time.Millisecond // connection establishment
	writeTimeout = 500 * time.Millisecond // one frame write
)

// tcpPeer is the outbound connection slot for one peer.
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewTCP returns a TCP transport for endpoint self of the given peer
// address list, listening on addrs[self].
func NewTCP(self int, addrs []string, _ TCPOptions) (*TCP, error) {
	validatePeer(self, len(addrs))
	t := &TCP{
		self:    self,
		addrs:   append([]string(nil), addrs...),
		peers:   make([]*tcpPeer, len(addrs)),
		inbound: make(map[net.Conn]struct{}),
	}
	for i := range t.peers {
		t.peers[i] = &tcpPeer{}
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
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

// Stats returns the backend's counters.
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

// Send implements Transport.
func (t *TCP) Send(to int, frame []byte) error {
	validatePeer(to, t.N())
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	buf, err := AppendFrame(nil, frame, DefaultMaxFrame)
	if err != nil {
		return err
	}
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		conn, err := t.dial(to)
		if err != nil {
			return err
		}
		p.conn = conn
	}
	p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := p.conn.Write(buf); err != nil {
		p.conn.Close()
		p.conn = nil
		return fmt.Errorf("transport: write to peer %d: %w", to, err)
	}
	t.stats.Sent.Add(1)
	return nil
}

// dial opens the outbound connection to peer `to` and sends the hello
// frame identifying this endpoint. Self is dialled at the bound
// address, since addrs[self] may name port 0.
func (t *TCP) dial(to int) (net.Conn, error) {
	addr := t.Addr()
	if to != t.self {
		addr = t.peerAddr(to)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial peer %d (%s): %w", to, addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(t.self))
	buf, _ := AppendFrame(nil, hello[:], DefaultMaxFrame)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello to peer %d: %w", to, err)
	}
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
		if t.closed {
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

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
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
			p.conn = nil
		}
		p.mu.Unlock()
	}
	t.wg.Wait()
	return nil
}
