package main

import (
	"path/filepath"
	"testing"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
)

// TestTimedOutRunLeavesNoWaiter: a "run" whose job outlives the RPC's
// patience takes its terminal-waiter channel with it, instead of
// leaving it in the table for the life of the process.
func TestTimedOutRunLeavesNoWaiter(t *testing.T) {
	addrs, err := node.AllocAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	cfg := &node.Config{Peers: addrs[:1], Clients: addrs[1:], Journals: []string{""}}
	if err := node.Write(cfgPath, cfg); err != nil {
		t.Fatal(err)
	}
	s, err := runServe(cfgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.rep.Close()
	defer s.rpc.Close()
	s.runTimeout = 100 * time.Millisecond

	waiters := func() (n int) {
		s.rep.RT.Do(func(amp.Context) { n = len(s.jobWaiters) })
		return n
	}
	slow := map[string]any{"cost_ms": float64(2000)}
	if resp := s.handle(clientrpc.Request{Op: "run", Key: "slow", Val: slow}); resp.OK || resp.Err == "" {
		t.Fatalf("run of a 2 s job under a 100 ms patience: %+v, want a timeout error", resp)
	}
	if n := waiters(); n != 0 {
		t.Errorf("%d job-waiter entries after the timed-out run, want 0", n)
	}
	// The path that does complete still cleans up after itself.
	if resp := s.handle(clientrpc.Request{Op: "run", Key: "quick", Val: map[string]any{"cost_ms": float64(2)}}); !resp.OK {
		t.Fatalf("run of a 2 ms job: %+v", resp)
	}
	if n := waiters(); n != 0 {
		t.Errorf("%d job-waiter entries after a completed run, want 0", n)
	}
}
