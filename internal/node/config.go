// Package node is the one skeleton under the three daemons (basicsd,
// basicskv, basicsjobd): what every process that carries the paper's
// universal construction — Ω + TO-broadcast + per-slot consensus
// driving a deterministic state machine — onto real sockets needs, kept
// exactly once. The state machines are the plug-ins; this is the
// substrate:
//
//   - the cluster file (Config, Tuning): load, validate, write, and the
//     conversions to clock unit, rsm options, compaction thresholds and
//     per-sender chaos rules;
//   - the replica bring-up (Start, StartTCP): journal → recovery → TCP →
//     Chaos → Resilient → Runtime with the Ω suspect wiring, plus the
//     stat snapshots (NetStats, JournalStats) and the
//     submit-then-wait-for-local-apply table (Waiters);
//   - the subprocess harness of the kill -9 e2es (E2EOptions, Cluster):
//     spawn, SIGKILL, restart, readiness, port allocation, and the
//     bounded-journal assertion.
//
// A daemon's main is then a verb table (its clientrpc handler) over a
// Replica.
package node

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// Tuning is the part of a cluster file that is about the replica stack
// and not about where the processes live; every daemon's file carries
// it (basicskv around its per-shard address rows).
type Tuning struct {
	// UnitMS is the clock tick length in milliseconds (default 2).
	UnitMS int `json:"unit_ms,omitempty"`
	// Pipeline is how many consensus slots may run ballots concurrently
	// per replica group (default rsm.DefaultPipeline). Slots themselves
	// are unbounded: instances are allocated lazily and GCed once
	// delivered.
	Pipeline int `json:"pipeline,omitempty"`
	// MaxBatch caps commands packed into one consensus slot (default
	// rsm.DefaultMaxBatch).
	MaxBatch int `json:"max_batch,omitempty"`
	// CompactRecords / CompactBytes are the journal auto-compaction
	// thresholds: once the active segment passes either one, the node
	// snapshots its state and truncates the journal behind it. 0 takes
	// rsm.DefaultCompactRecords / rsm.DefaultCompactBytes; negative
	// disables that threshold (both negative = unbounded journal).
	CompactRecords int64 `json:"compact_records,omitempty"`
	CompactBytes   int64 `json:"compact_bytes,omitempty"`
}

// Unit returns the configured clock tick duration.
func (t *Tuning) Unit() time.Duration {
	if t.UnitMS <= 0 {
		return transport.DefaultUnit
	}
	return time.Duration(t.UnitMS) * time.Millisecond
}

// rsmOptions returns the proposer tuning options the file carries.
func (t *Tuning) rsmOptions() []rsm.NodeOption {
	var opts []rsm.NodeOption
	if t.Pipeline > 0 {
		opts = append(opts, rsm.WithPipeline(t.Pipeline))
	}
	if t.MaxBatch > 0 {
		opts = append(opts, rsm.WithMaxBatch(t.MaxBatch))
	}
	return opts
}

// compaction resolves the configured auto-compaction thresholds.
func (t *Tuning) compaction() (records, bytes int64) {
	return resolveThreshold(t.CompactRecords, rsm.DefaultCompactRecords),
		resolveThreshold(t.CompactBytes, rsm.DefaultCompactBytes)
}

// resolveThreshold maps the file convention (0 = default, negative =
// off) onto rsm.WithCompaction's (0 = off).
func resolveThreshold(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// Config is the cluster description shared by every node and the
// workload driver of a one-group daemon: one entry per node in each
// list, all indexed by node id. basicsd uses it as is; basicsjobd embeds
// it next to its queue policy.
type Config struct {
	// Peers are the transport (node-to-node) listen addresses.
	Peers []string `json:"peers"`
	// Clients are the client-RPC listen addresses.
	Clients []string `json:"clients"`
	// Journals are the per-node journal file paths ("" disables
	// persistence, losing kill -9 survival).
	Journals []string `json:"journals"`
	// Chaos is the fault schedule every node injects on its outbound
	// links (windows are in clock ticks since that node's boot).
	Chaos []ChaosConfig `json:"chaos,omitempty"`
	Tuning
}

// ChaosConfig is one transport.ChaosRule in JSON form.
type ChaosConfig struct {
	Kind  string `json:"kind"` // drop, partition, isolate, delay, duplicate
	From  int64  `json:"from,omitempty"`
	Until int64  `json:"until,omitempty"`
	Pct   int    `json:"pct,omitempty"`
	Group []int  `json:"group,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

var chaosKinds = map[string]transport.ChaosKind{
	"drop":      transport.ChaosDrop,
	"partition": transport.ChaosPartition,
	"isolate":   transport.ChaosIsolate,
	"delay":     transport.ChaosDelay,
	"duplicate": transport.ChaosDuplicate,
}

// Validate checks the shape Load accepts.
func (c *Config) Validate() error {
	n := len(c.Peers)
	if n == 0 {
		return fmt.Errorf("no peers")
	}
	if len(c.Clients) != n || len(c.Journals) != n {
		return fmt.Errorf("peers/clients/journals lengths differ (%d/%d/%d)",
			n, len(c.Clients), len(c.Journals))
	}
	for _, cc := range c.Chaos {
		if _, ok := chaosKinds[cc.Kind]; !ok {
			return fmt.Errorf("unknown chaos kind %q", cc.Kind)
		}
	}
	return nil
}

// ChaosRules converts the schedule for one sending node, giving each
// rule a per-sender stream so the cluster's faults decorrelate.
func (c *Config) ChaosRules(sender int) []transport.ChaosRule {
	var rules []transport.ChaosRule
	for _, cc := range c.Chaos {
		rules = append(rules, transport.ChaosRule{
			Kind: chaosKinds[cc.Kind],
			From: amp.Time(cc.From), Until: amp.Time(cc.Until),
			Pct: cc.Pct, Group: append([]int(nil), cc.Group...),
			Seed: cc.Seed ^ int64(sender+1)<<8,
		})
	}
	return rules
}

// Load reads the JSON cluster file at path into cfg and validates it.
// cfg is a *Config or a daemon's own struct around Config or Tuning.
func Load(path string, cfg interface{ Validate() error }) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, cfg); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Write stores cfg at path in the form Load reads. It is a function
// and not a method of Config so that a struct embedding Config is
// written whole.
func Write(path string, cfg any) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ServeArgs parses the arguments of a daemon's `serve` verb: `-config
// FILE` and this process's index in the file's lists, under the flag
// the daemon has always used for it ("id", basicskv: "self"). A missing
// one prints the usage and exits, as flag.ExitOnError does for a
// malformed one.
func ServeArgs(args []string, idFlag string) (cfgPath string, id int) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&cfgPath, "config", "", "cluster config file (JSON)")
	fs.IntVar(&id, idFlag, -1, "this process's index in the config's lists")
	fs.Parse(args)
	if cfgPath == "" || id < 0 {
		fs.Usage()
		os.Exit(2)
	}
	return cfgPath, id
}
