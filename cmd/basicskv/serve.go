package main

import (
	"fmt"
	"log"

	"distbasics/internal/clientrpc"
	"distbasics/internal/kv"
	"distbasics/internal/node"
)

// runServe is the `basicskv serve` entrypoint: start this process's
// replica of every shard and answer client RPCs until killed. Like
// basicsd, the process model is crash-stop — there is no graceful
// shutdown path; replication through the other processes is what
// carries state across a kill.
func runServe(cfgPath string, self int) error {
	cfg := &Config{}
	if err := node.Load(cfgPath, cfg); err != nil {
		return err
	}
	if self >= len(cfg.Clients) {
		return fmt.Errorf("self %d out of range [0,%d)", self, len(cfg.Clients))
	}
	host, err := kv.NewHost(cfg.hostConfig(self))
	if err != nil {
		return err
	}
	rpc, err := clientrpc.NewServer(cfg.Clients[self], host.Handle)
	if err != nil {
		host.Close()
		return fmt.Errorf("client listen %s: %w", cfg.Clients[self], err)
	}
	log.Printf("basicskv: process %d up: %d shards, clients=%s", self, cfg.Shards, rpc.Addr())
	select {} // crash-stop: run until killed
}
