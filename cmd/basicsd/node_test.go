package main

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
)

// TestStatGauges: basicsd's stat reply carries its replica group's Ω
// and rsm gauges, each key present in the JSON a client sees, and no
// lease part: basicsd runs no read lease.
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
	}
	if _, ok := g["lease"]; ok || g["leader"] != 0.0 {
		t.Errorf("want leader 0 and no lease gauges on a one-node basicsd: %s", raw)
	}
}
