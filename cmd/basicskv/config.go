package main

import (
	"fmt"

	"distbasics/internal/kv"
)

// Config describes a multi-process basicskv cluster. Process i runs
// replica i of EVERY shard; Peers[s][i] is the transport address
// replica i uses for shard s, and Clients[i] is where process i serves
// client RPCs. Shard routing happens server-side (any process answers
// for any key), so clients need no shard map.
type Config struct {
	Shards  int        `json:"shards"`
	Peers   [][]string `json:"peers"`
	Clients []string   `json:"clients"`

	// Journals[s][i] is process i's journal path for its replica of
	// shard s (same shape as Peers; empty/absent disables persistence,
	// losing kill -9 survival for state not re-replicated from peers).
	Journals [][]string `json:"journals,omitempty"`
}

// Validate checks the shape node.Load accepts: one peer row per shard,
// all rows as long as the client list, journals (if any) the same shape.
func (c *Config) Validate() error {
	if c.Shards == 0 {
		c.Shards = len(c.Peers)
	}
	if c.Shards != len(c.Peers) || c.Shards == 0 {
		return fmt.Errorf("%d shards but %d peer rows", c.Shards, len(c.Peers))
	}
	if len(c.Journals) != 0 && len(c.Journals) != c.Shards {
		return fmt.Errorf("%d journal rows for %d shards", len(c.Journals), c.Shards)
	}
	n := len(c.Clients)
	for s, row := range c.Peers {
		if len(row) != n {
			return fmt.Errorf("shard %d has %d replicas for %d client addrs", s, len(row), n)
		}
	}
	for s, row := range c.Journals {
		if len(row) != n {
			return fmt.Errorf("journal row %d has %d entries for %d processes", s, len(row), n)
		}
	}
	return nil
}

// hostConfig translates the file config into a kv.HostConfig for
// process self.
func (c *Config) hostConfig(self int) kv.HostConfig {
	var journals []string
	for _, row := range c.Journals {
		journals = append(journals, row[self])
	}
	return kv.HostConfig{Shards: c.Shards, Peers: c.Peers, Self: self, Journals: journals}
}
