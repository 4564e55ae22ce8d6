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

// Validate checks the shape node.Load accepts: kv.ShardShape's (one
// peer row per shard, rows of one length, journal rows absent or one per
// shard) with every row as long as the client list.
func (c *Config) Validate() error {
	var err error
	if c.Shards, err = kv.ShardShape(c.Shards, c.Peers, len(c.Journals)); err != nil {
		return err
	}
	n := len(c.Clients)
	if len(c.Peers[0]) != n {
		return fmt.Errorf("%d replicas per shard for %d client addrs", len(c.Peers[0]), n)
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
