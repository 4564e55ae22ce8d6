package main

import (
	"encoding/json"
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

// TestStatGauges: basicsjobd's stat reply carries its replica group's
// Ω and rsm gauges in their own field, each key present in the JSON a
// client sees, beside the queue counters in val (whose numeric keys
// bench/ reads), and no lease part: jobq runs no read lease.
func TestStatGauges(t *testing.T) {
	addrs, err := node.AllocAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := node.Write(cfgPath, &node.Config{Peers: addrs[:1], Clients: addrs[1:], Journals: []string{""}}); err != nil {
		t.Fatal(err)
	}
	s, err := runServe(cfgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.rep.Close()
	defer s.rpc.Close()
	raw, err := json.Marshal(s.handle(clientrpc.Request{Op: "stat"}))
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Val    map[string]any   `json:"val"`
		Gauges []map[string]any `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Gauges) != 1 {
		t.Fatalf("stat carries %d gauge entries, want 1 (%v): %s", len(resp.Gauges), err, raw)
	}
	g := resp.Gauges[0]
	for _, k := range []string{"leader", "leaderChanges", "falseSuspicions", "resends"} {
		if _, ok := g[k]; !ok {
			t.Errorf("stat has no %q gauge: %s", k, raw)
		}
		if _, ok := resp.Val[k]; ok {
			t.Errorf("gauge %q is in val, where bench/ reads the queue counters: %s", k, raw)
		}
	}
	if _, ok := g["lease"]; ok || g["leader"] != 0.0 {
		t.Errorf("want leader 0 and no lease gauges on a one-node basicsjobd: %s", raw)
	}
	if _, ok := resp.Val["submitted"]; !ok {
		t.Errorf("stat val lost the queue counters: %s", raw)
	}
}
