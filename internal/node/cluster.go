package node

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distbasics/internal/clientrpc"
)

// E2EOptions parameterize a kill -9 survival run: the cluster's shape
// and faults. The workload and its verifier are the caller's.
type E2EOptions struct {
	Bin     string // daemon binary for the serve subprocesses ("" = self)
	Dir     string // journal + artifact directory ("" = temp dir)
	Nodes   int    // cluster size (default 5)
	Clients int    // concurrent workload clients (default 3)
	Kill    int    // nodes to SIGKILL mid-run (must stay a minority)
	Chaos   bool   // inject drop/delay/duplicate chaos on every link
	Compact bool   // force aggressive journal compaction mid-campaign
	Keep    bool   // keep artifacts even on success
}

// E2EArgs parses the arguments of a daemon's `e2e` verb — where the
// artifacts go and whether a passing run keeps them — around the one
// campaign the verb runs: the default cluster, two nodes SIGKILLed,
// link chaos and forced compaction. (Tests shape smaller runs through
// the fields.)
func E2EArgs(args []string) E2EOptions {
	o := E2EOptions{Kill: 2, Chaos: true, Compact: true}
	fs := flag.NewFlagSet("e2e", flag.ExitOnError)
	fs.StringVar(&o.Dir, "dir", "", "journal/artifact directory (default: temp)")
	fs.BoolVar(&o.Keep, "keep", false, "keep artifacts on success")
	parseVerb(fs, args)
	return o
}

// WithDefaults fills the zero fields, refuses a kill set that loses the
// majority, and makes the artifact directory (a temp dir named after
// the daemon when none is given).
func (o E2EOptions) WithDefaults(daemon string) (E2EOptions, error) {
	if o.Bin == "" {
		self, err := os.Executable()
		if err != nil {
			return o, fmt.Errorf("resolve self: %w", err)
		}
		o.Bin = self
	}
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.Kill < 0 || 2*o.Kill >= o.Nodes {
		return o, fmt.Errorf("killing %d of %d nodes loses the majority", o.Kill, o.Nodes)
	}
	if o.Dir == "" {
		dir, err := os.MkdirTemp("", daemon+"-e2e-")
		if err != nil {
			return o, err
		}
		o.Dir = dir
	} else if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return o, err
	}
	return o, nil
}

// Config lays a one-group cluster out on localhost: fresh addresses,
// one journal per node in Dir, and the options' faults.
func (o E2EOptions) Config() (*Config, error) {
	peers, err := AllocAddrs(o.Nodes)
	if err != nil {
		return nil, err
	}
	clients, err := AllocAddrs(o.Nodes)
	if err != nil {
		return nil, err
	}
	cfg := &Config{Peers: peers, Clients: clients, Journals: make([]string, o.Nodes)}
	for i := range cfg.Journals {
		cfg.Journals[i] = filepath.Join(o.Dir, fmt.Sprintf("node%d.journal", i))
	}
	if o.Compact {
		// A threshold far below the campaign's apply volume keeps every
		// node compacting throughout the run, so the SIGKILLs land around
		// live snapshot installs and the restarted victims recover from a
		// snapshot plus a short journal suffix.
		cfg.CompactRecords = e2eCompactRecords
	}
	if o.Chaos {
		// Mild, permanent background chaos on every link: enough to
		// exercise retry/backoff continuously without starving progress.
		cfg.Chaos = []ChaosConfig{
			{Kind: "drop", Pct: 10, Seed: 1},
			{Kind: "delay", Pct: 10, Seed: 2},
			{Kind: "duplicate", Pct: 5, Seed: 3},
		}
	}
	return cfg, nil
}

// e2eCompactRecords is the threshold a run with Compact set forces.
const e2eCompactRecords = 32

// Cluster manages the `serve` subprocesses of one e2e run.
type Cluster struct {
	Clients []string // client-RPC address of every node

	opt     E2EOptions
	cfgPath string
	idFlag  string

	mu    sync.Mutex
	procs []*exec.Cmd
}

// Launch writes cfg to Dir/cluster.json, spawns
// `Bin serve -config Dir/cluster.json -idFlag i` for every client
// address (what ServeArgs parses), and waits until each node answers a
// stat RPC. On error the processes already started are killed.
func Launch(opt E2EOptions, cfg any, clients []string, idFlag string) (*Cluster, error) {
	c := &Cluster{
		Clients: clients, opt: opt, idFlag: idFlag,
		cfgPath: filepath.Join(opt.Dir, "cluster.json"),
		procs:   make([]*exec.Cmd, len(clients)),
	}
	if err := Write(c.cfgPath, cfg); err != nil {
		return nil, err
	}
	all := make([]int, len(clients))
	for i := range all {
		all[i] = i
	}
	if err := c.Restart(all, 10*time.Second); err != nil {
		c.StopAll()
		return nil, err
	}
	return c, nil
}

// StartNode (re)spawns node i with its stdout/stderr appended to the
// node's log artifact.
func (c *Cluster) StartNode(i int) error {
	logf, err := os.OpenFile(filepath.Join(c.opt.Dir, fmt.Sprintf("node%d.log", i)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.opt.Bin, "serve", "-config", c.cfgPath, "-"+c.idFlag, fmt.Sprint(i))
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start node %d: %w", i, err)
	}
	go func() { cmd.Wait(); logf.Close() }()
	c.mu.Lock()
	c.procs[i] = cmd
	c.mu.Unlock()
	return nil
}

// Kill9 sends SIGKILL to node i — the real thing, not a graceful stop.
func (c *Cluster) Kill9(i int) {
	c.mu.Lock()
	cmd := c.procs[i]
	c.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Signal(syscall.SIGKILL)
	}
}

// StopAll SIGKILLs every node (the daemons have no other way down).
func (c *Cluster) StopAll() {
	for i := range c.procs {
		c.Kill9(i)
	}
}

// WaitReady blocks until node i answers a stat RPC (or the deadline
// passes).
func (c *Cluster) WaitReady(i int, deadline time.Duration) error {
	cl := clientrpc.NewClient(c.Clients[i])
	defer cl.Close()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if _, err := cl.Stat(2 * time.Second); err == nil {
			return nil
		}
		cl.Close()
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("node %d at %s not ready after %s", i, c.Clients[i], deadline)
}

// Restart spawns every node in ids — from its journal, if it ran
// before — and waits until each is ready.
func (c *Cluster) Restart(ids []int, deadline time.Duration) error {
	for _, i := range ids {
		if err := c.StartNode(i); err != nil {
			return err
		}
	}
	for _, i := range ids {
		if err := c.WaitReady(i, deadline); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns node i's full stat response.
func (c *Cluster) Stats(i int) (clientrpc.Response, error) {
	rpc := clientrpc.NewClient(c.Clients[i])
	defer rpc.Close()
	return rpc.Stats(5 * time.Second)
}

// LogStats prints each node's applied count, its daemon's own stat
// value if any, and its TCP counters: frames sent and delivered, frames
// shed at a full send buffer, and redials.
func (c *Cluster) LogStats() {
	for i := range c.Clients {
		resp, err := c.Stats(i)
		if err != nil || resp.Net == nil {
			continue
		}
		val := ""
		if resp.Val != nil {
			val = fmt.Sprintf(" val=%v", resp.Val)
		}
		log.Printf("e2e: node %d: applied=%d%s net: sent=%d delivered=%d shed=%d redials=%d",
			i, resp.Applied, val, resp.Net.Sent, resp.Net.Delivered, resp.Net.Shed, resp.Net.Retries)
	}
}

// CheckJournals is the journal-growth leg of a run with Compact set:
// every node that wrote enough to reach the forced threshold must
// actually have compacted — at least one snapshot installed, and the
// live journal strictly smaller than the lifetime append volume:
// bounded growth, not just survival. Write errors or a degraded journal
// fail the run.
func (c *Cluster) CheckJournals() error {
	liveSnaps := int64(0)
	for i := range c.Clients {
		resp, err := c.Stats(i)
		if err != nil {
			return fmt.Errorf("stat node %d: %w", i, err)
		}
		js := resp.Journal
		if js == nil {
			return fmt.Errorf("node %d reports no journal stats", i)
		}
		// Snapshots/LifeRecords count this incarnation only; Gen is
		// persisted in the journal's file layout, so a restarted victim
		// that recovered from a snapshot but hasn't re-compacted yet
		// still reports the generation its killed predecessor reached.
		// A victim killed before its first compaction and restarted late
		// may have written less than a threshold in either life: none due.
		if js.Snapshots == 0 && js.Gen == 0 && js.LifeRecords >= e2eCompactRecords {
			return fmt.Errorf("node %d never compacted (life records %d)", i, js.LifeRecords)
		}
		if js.Snapshots > 0 && (js.Records >= js.LifeRecords || js.Bytes >= js.LifeBytes) {
			return fmt.Errorf("node %d journal not bounded: %d/%d records, %d/%d bytes live/lifetime",
				i, js.Records, js.LifeRecords, js.Bytes, js.LifeBytes)
		}
		if js.WriteErrs > 0 || js.Degraded {
			return fmt.Errorf("node %d journal degraded (%d write errors)", i, js.WriteErrs)
		}
		liveSnaps += js.Snapshots
		log.Printf("e2e: node %d journal: %d snapshots, %d/%d live/lifetime records, gen %d",
			i, js.Snapshots, js.Records, js.LifeRecords, js.Gen)
	}
	if liveSnaps == 0 {
		return fmt.Errorf("no node installed a snapshot during the campaign")
	}
	return nil
}

// Artifact writes one diagnostic file next to the node logs and
// journals.
func (c *Cluster) Artifact(name string, data []byte) {
	os.WriteFile(filepath.Join(c.opt.Dir, name), data, 0o644)
}

// Fail annotates cause with where the artifacts are.
func (c *Cluster) Fail(cause error) error {
	return fmt.Errorf("%w (artifacts in %s)", cause, c.opt.Dir)
}

// Passed removes the artifact directory unless the options keep it.
func (c *Cluster) Passed() {
	if !c.opt.Keep {
		os.RemoveAll(c.opt.Dir)
	}
}

// portCursor walks the ports below the kernel's ephemeral range. A
// port the kernel hands out itself (":0") can be taken again, between
// our releasing it and a daemon binding it, as the source port of any
// outgoing connection — the daemons dial each other the moment they
// start — and the daemon then dies with "address already in use" (about
// one run in 60). Ports below the range are only ever bound by name.
var portCursor = struct {
	sync.Mutex
	next int
}{next: os.Getpid() * 131}

// listenRange returns the ports [lo, hi) AllocAddrs picks from.
func listenRange() (lo, hi int) {
	lo, hi = 10000, 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if eph, err := strconv.Atoi(f[0]); err == nil && eph > lo+1000 {
				hi = eph
			}
		}
	}
	return lo, hi
}

// AllocAddrs picks n distinct free localhost TCP addresses below the
// ephemeral port range, probing each by binding it once.
func AllocAddrs(n int) ([]string, error) {
	lo, hi := listenRange()
	portCursor.Lock()
	defer portCursor.Unlock()
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("no free port in [%d,%d) after %d tries", lo, hi, tries)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", lo+portCursor.next%(hi-lo))
		portCursor.next++
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}
