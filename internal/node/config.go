// Package node is the one skeleton under the three daemons (basicsd,
// basicskv, basicsjobd): what every process that carries the paper's
// universal construction — Ω + TO-broadcast + per-slot consensus
// driving a deterministic state machine — onto real sockets needs, kept
// exactly once. The state machines are the plug-ins; this is the
// substrate:
//
//   - the cluster file (Config): addresses, journal paths and faults —
//     load (unknown keys refused), validate, write, and the conversion
//     to per-sender chaos rules;
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

	"distbasics/internal/amp"
	"distbasics/internal/transport"
)

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
	// CompactRecords is the journal auto-compaction threshold: once the
	// active segment holds this many records the node snapshots its
	// state and truncates the journal behind it. 0 (absent) takes
	// rsm.DefaultCompactRecords; the kill -9 harness sets 32 so its
	// SIGKILLs land amid snapshot installs. It is the file's one tuning
	// key: the clock unit, batching, leases and queue policy are
	// constants of the daemons.
	CompactRecords int64 `json:"compact_records,omitempty"`
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
// cfg is a *Config or a daemon's own struct (around Config or not). A
// key cfg has no field for is an error naming the key: a misspelt or
// retired key must not leave the daemon running on another value.
func Load(path string, cfg interface{ Validate() error }) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() // only read
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if dec.More() {
		return fmt.Errorf("parse %s: data after the top-level object", path)
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

// parseVerb parses a verb's arguments and refuses a stray positional
// one the way flag.ExitOnError refuses an unknown flag — message, usage,
// exit 2. flag.Parse alone stops at the first non-flag and ignores the
// rest, so `e2e keep` would run as `e2e` and delete what `-keep` keeps.
func parseVerb(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
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
	parseVerb(fs, args)
	if cfgPath == "" || id < 0 {
		fs.Usage()
		os.Exit(2)
	}
	return cfgPath, id
}
