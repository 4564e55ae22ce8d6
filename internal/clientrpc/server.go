package clientrpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler serves one decoded request. It may block (consensus
// round-trips routinely take network round-trip times); MaxWorkers
// caps how many handlers run at once.
type Handler func(req Request) Response

// Options tunes a Server.
type Options struct {
	// MaxWorkers bounds concurrently-running handlers (default
	// DefaultMaxWorkers). This is the server's admission control: a
	// connection whose request finds every slot taken waits for one and
	// reads nothing further meanwhile, so TCP backpressure does the rest.
	MaxWorkers int
	// MaxLine caps one request line's byte length (default
	// DefaultMaxLine); a connection exceeding it is dropped.
	MaxLine int
}

const (
	DefaultMaxWorkers = 128
	DefaultMaxLine    = 1 << 20

	// writeStall bounds how long one response write may stay blocked on
	// a full socket buffer before the connection is declared dead.
	writeStall = 10 * time.Second
)

// Server answers line-JSON requests on a TCP listen address: an accept
// loop and one goroutine per connection, the same idiom as
// transport.TCP. See the package comment for what that costs.
type Server struct {
	h       Handler
	maxLine int
	ln      net.Listener
	sem     chan struct{} // one slot per running handler
	done    chan struct{} // closed by Close

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer listens on addr (host:port; :0 allocates) and serves
// requests through h until Close.
func NewServer(addr string, h Handler, opts ...Options) (*Server, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = DefaultMaxWorkers
	}
	if o.MaxLine <= 0 {
		o.MaxLine = DefaultMaxLine
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("clientrpc: listen %s: %w", addr, err)
	}
	s := &Server{
		h:       h,
		maxLine: o.MaxLine,
		ln:      ln,
		sem:     make(chan struct{}, o.MaxWorkers),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops listening and closes every connection before it
// returns. Handlers already running are not interrupted or waited for;
// their response writes fail and their goroutines drain away.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	s.ln.Close()
	for nc := range s.conns {
		nc.Close()
	}
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		go s.serve(nc)
	}
}

// serve answers one connection's requests in arrival order until the
// connection drops. Each line is read, handled and answered before the
// next is read, so a request fully received before the peer closed is
// still served: the EOF is only seen after it.
func (s *Server) serve(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(nc)
	for {
		line, err := readLine(br, s.maxLine)
		if err != nil {
			return
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var resp Response
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Err: "bad request: " + err.Error()}
		} else {
			select {
			case s.sem <- struct{}{}:
			case <-s.done:
				return
			}
			resp = s.h(req)
			<-s.sem
		}
		out, err := json.Marshal(resp)
		if err != nil {
			out, _ = json.Marshal(Response{Err: "marshal: " + err.Error()})
		}
		nc.SetWriteDeadline(time.Now().Add(writeStall))
		if _, err := nc.Write(append(out, '\n')); err != nil {
			return
		}
	}
}

// readLine returns the next newline-terminated line without its
// terminator, valid until the next read from br. A line that outgrows
// max is an error however much of it has arrived.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte // the chunks so far of a line longer than br's buffer
	for {
		chunk, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return nil, err
		}
		if len(line)+len(chunk) > max+1 {
			return nil, errors.New("clientrpc: request line over MaxLine")
		}
		if err == nil && line == nil {
			return chunk[:len(chunk)-1], nil
		}
		line = append(line, chunk...)
		if err == nil {
			return line[:len(line)-1], nil
		}
	}
}
