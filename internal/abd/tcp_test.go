package abd

import (
	"sync"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/transport"
)

// startOverTCP runs procs as one transport.Runtime each over localhost
// TCP sockets and a wall clock — real goroutines, real frames through
// the wire codec — and returns the function that stops them.
func startOverTCP(t *testing.T, procs []amp.Process) (stop func()) {
	t.Helper()
	amp.RegisterWire(transport.Register)
	RegisterWire(transport.Register)
	n := len(procs)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*transport.TCP, n)
	for i := range tcps {
		tcp, err := transport.NewTCP(i, addrs, transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		tcps[i] = tcp
	}
	clock := transport.NewRealClock(500 * time.Microsecond)
	rts := make([]*transport.Runtime, n)
	for i, tcp := range tcps {
		for j, peer := range tcps {
			tcp.SetPeerAddr(j, peer.Addr())
		}
		rts[i] = transport.NewRuntime(tcp, clock, procs[i], transport.WithRuntimeSeed(int64(i+1)))
	}
	for _, rt := range rts {
		rt.Start()
	}
	return func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}
}

// liveClient shares a Stack with a Register and drives one write and
// read-back (at the writer) or one read (elsewhere) from inside the process's own
// event loop — operations must not be invoked from foreign goroutines,
// exactly like on the simulator where Schedule plays this role.
type liveClient struct {
	reg    *Register
	regCtx func() amp.Context // the register component's context
	write  bool

	mu   sync.Mutex
	done bool
	val  any
}

func (c *liveClient) Init(ctx amp.Context) { ctx.SetTimer(5, 1) }

func (c *liveClient) OnMessage(amp.Context, int, amp.Message) {}

func (c *liveClient) OnTimer(_ amp.Context, id int) {
	if id != 1 {
		return
	}
	if c.write {
		// Write, then read back at the writer: the read is real-time
		// after the write, so it must return the written value.
		c.reg.Write(c.regCtx(), "live-value", func(amp.Time) {
			c.reg.Read(c.regCtx(), func(v any, _ amp.Time) {
				c.mu.Lock()
				c.done, c.val = true, v
				c.mu.Unlock()
			})
		})
		return
	}
	c.reg.Read(c.regCtx(), func(v any, _ amp.Time) {
		c.mu.Lock()
		c.done, c.val = true, v
		c.mu.Unlock()
	})
}

// TestABDLiveRuntime runs the ABD register on real goroutines over TCP
// (the first on-the-wire use of RegisterWire): the writer writes while a
// reader reads — the same protocol code as on the virtual-time
// simulator, under the race detector. Assertions are
// schedule-independent.
func TestABDLiveRuntime(t *testing.T) {
	const n = 5
	regs := make([]*Register, n)
	clients := make([]*liveClient, n)
	stacks := make([]*amp.Stack, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		i := i
		regs[i] = NewRegister(n, 0)
		clients[i] = &liveClient{
			reg:    regs[i],
			regCtx: func() amp.Context { return stacks[i].Ctx(0) },
			write:  i == 0,
		}
		stacks[i] = amp.NewStack(regs[i], clients[i])
		procs[i] = stacks[i]
	}
	writer, reader := clients[0], clients[3]
	stop := startOverTCP(t, procs)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		writer.mu.Lock()
		wd := writer.done
		writer.mu.Unlock()
		reader.mu.Lock()
		rd := reader.done
		reader.mu.Unlock()
		if wd && rd {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()

	writer.mu.Lock()
	defer writer.mu.Unlock()
	if !writer.done {
		t.Fatal("write and read-back never completed over TCP")
	}
	if writer.val != "live-value" {
		t.Fatalf("writer read back %v after its write completed, want live-value", writer.val)
	}
	reader.mu.Lock()
	defer reader.mu.Unlock()
	if !reader.done {
		t.Fatal("read never completed over TCP")
	}
	// The reader's read raced the write (both start at timer 5): it must
	// return either the initial nil or the written value, never anything else.
	if reader.val != nil && reader.val != "live-value" {
		t.Fatalf("read returned %v, want nil or live-value", reader.val)
	}
}
