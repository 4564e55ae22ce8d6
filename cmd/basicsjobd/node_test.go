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
// leaving it in the table for the life of the process. The node's stat
// then reports its runner's early-start gauges.
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

	// stat carries the runner's early-start gauges. On a one-node
	// cluster every placed job is placed here and starts early: the
	// quick one at least, and the slow one too unless it was submitted
	// before the worker's join applied.
	val, _ := s.handle(clientrpc.Request{Op: "stat"}).Val.(map[string]any)
	starts, ok1 := val["earlyStarts"].(int)
	dropped, ok2 := val["earlyDropped"].(int)
	if !ok1 || !ok2 || starts < 1 || starts > 2 || dropped != 0 {
		t.Errorf("stat earlyStarts=%v earlyDropped=%v, want 1 or 2 and 0", val["earlyStarts"], val["earlyDropped"])
	}
}
