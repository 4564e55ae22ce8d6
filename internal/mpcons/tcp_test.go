package mpcons

import (
	"sync"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/fd"
	"distbasics/internal/transport"
)

// decideOverTCP runs procs as one transport.Runtime each over localhost
// TCP sockets and a wall clock — real goroutines, real frames through
// the wire codec (the first on-the-wire use of RegisterWire) — until
// every slot of decs is set or a generous deadline passes, then stops
// them and returns a copy of decs. set is the decide callback for
// process i.
func decideOverTCP(t *testing.T, n int, build func(i int, set func(v any)) amp.Process) []any {
	t.Helper()
	amp.RegisterWire(transport.Register)
	fd.RegisterWire(transport.Register)
	RegisterWire(transport.Register)
	var mu sync.Mutex
	decs := make([]any, n)
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
		i := i
		for j, peer := range tcps {
			tcp.SetPeerAddr(j, peer.Addr())
		}
		proc := build(i, func(v any) {
			mu.Lock()
			decs[i] = v
			mu.Unlock()
		})
		rts[i] = transport.NewRuntime(tcp, clock, proc, transport.WithRuntimeSeed(int64(i+1)))
	}
	for _, rt := range rts {
		rt.Start()
	}
	undecided := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range decs {
			if d == nil {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); undecided() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	for _, rt := range rts {
		rt.Stop()
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]any(nil), decs...)
}

// TestSynodLiveRuntime runs Ω-based consensus on real goroutines over
// TCP (race detector in CI): the exact code that runs on the
// virtual-time simulator, unchanged. Assertions are
// schedule-independent: agreement and validity among deciders, and —
// since localhost delays are bounded — termination within a generous
// deadline.
func TestSynodLiveRuntime(t *testing.T) {
	inputs := []any{"w", "x", "y", "z"}
	decs := decideOverTCP(t, len(inputs), func(i int, set func(any)) amp.Process {
		det := fd.NewDetector(len(inputs))
		return amp.NewStack(det, NewSynod(inputs[i], det, func(v any, _ amp.Time) { set(v) }))
	})
	for i, d := range decs {
		if d == nil {
			t.Fatalf("process %d undecided over TCP", i)
		}
		if d != decs[0] {
			t.Fatalf("agreement violated over TCP: %v", decs)
		}
	}
	valid := false
	for _, in := range inputs {
		if in == decs[0] {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("decided value %v was never proposed", decs[0])
	}
}

// TestBenOrLiveRuntime runs randomized consensus on real goroutines
// over TCP; the coins come from WithRuntimeSeed's per-process streams.
func TestBenOrLiveRuntime(t *testing.T) {
	decs := decideOverTCP(t, 3, func(i int, set func(any)) amp.Process {
		return amp.NewStack(NewBenOr(i%2, func(v any, _ amp.Time) { set(v) }))
	})
	for i, d := range decs {
		if d == nil {
			t.Fatalf("process %d undecided", i)
		}
		if d != decs[0] {
			t.Fatalf("agreement violated: %v", decs)
		}
	}
	if decs[0] != 0 && decs[0] != 1 {
		t.Fatalf("invalid decision %v", decs[0])
	}
}
