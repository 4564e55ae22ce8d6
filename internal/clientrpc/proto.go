// Package clientrpc is the line-JSON client RPC layer shared by the
// three daemons (basicsd, basicskv, basicsjobd — each supplies its verb
// table as the Handler): one JSON value per line in each direction,
// requests answered in order per connection.
//
// The server is net.Listen, an accept loop and a goroutine per
// connection that reads a line, runs the handler, writes the reply and
// reads the next — the idiom transport.TCP uses for node-to-node
// traffic, with the Go runtime's netpoller as the only reactor. A
// MaxWorkers-sized semaphore around the handler is the admission
// control: a connection waiting for a slot reads nothing further, and
// TCP backpressure does the rest. An idle connection costs about 9 KB
// (its parked goroutine's 4 KB stack, a 4 KB read buffer and the
// socket's bookkeeping); TestServerThousandIdleConnections bounds it
// at 16 KiB. Every deployment in this tree holds 2–11 connections per
// daemon.
package clientrpc

// Request is one client request line.
type Request struct {
	Op  string `json:"op"` // put, del, get, bcast, uid, order, stat; basicsjobd: submit, run, job, jobs
	Key string `json:"key,omitempty"`
	Val any    `json:"val,omitempty"`
}

// Response is the matching reply line.
type Response struct {
	OK      bool     `json:"ok"`
	Val     any      `json:"val,omitempty"`
	Err     string   `json:"err,omitempty"`
	Applied int      `json:"applied,omitempty"`
	Order   []string `json:"order,omitempty"`
	// OrderBase is the absolute apply position of Order[0]: a node
	// restarted from a snapshot only retains the applied suffix past the
	// snapshot's coverage, so order checks must align sequences at
	// OrderBase + index, not index.
	OrderBase int           `json:"order_base,omitempty"`
	ID        string        `json:"id,omitempty"`
	Net       *NetStats     `json:"net,omitempty"`
	Journal   *JournalStats `json:"journal,omitempty"`
	Gauges    []Gauges      `json:"gauges,omitempty"`
}

// Gauges is one replica group's failure-detector and consensus state,
// one entry per group a daemon's "stat" op reports on (basicskv: one
// per shard; basicsd and basicsjobd: one). A failover reads off it: who
// each survivor follows and, where a read lease runs, whose grant binds
// its acceptor and for how many more ticks.
type Gauges struct {
	Leader int `json:"leader"` // the Ω leader this replica believes in
	// LeaderChanges counts the changes of Leader since start (the
	// initial choice included), and FalseSuspicions the suspicions of a
	// peer retracted when it spoke again: once a cluster without crashes
	// is up, both stay put, or Ω's suspicion threshold is too short for
	// the load.
	LeaderChanges   int `json:"leaderChanges"`
	FalseSuspicions int `json:"falseSuspicions"`
	// Resends counts the payloads this replica, as their originator,
	// broadcast again because they were still unordered a sync period on.
	Resends int `json:"resends"`
	// Lease is the read lease's state, where one runs (basicskv).
	Lease *LeaseGauges `json:"lease,omitempty"`
}

// LeaseGauges is a replica's side of the read lease.
type LeaseGauges struct {
	// HoldsLease is rsm.Node.HoldsLease: whether it serves lease reads
	// now, which a leader holding grants does only once a command it
	// submitted in the current run has applied.
	HoldsLease bool `json:"holdsLease"`
	// GrantHolder is the process this replica's acceptor must honour
	// (-1 for none, itself while it holds grants), and GrantLeft the
	// ticks its grant to another process has left.
	GrantHolder int   `json:"grantHolder"`
	GrantLeft   int64 `json:"grantLeft"`
}

// NetStats is the TCP transport's counter snapshot a daemon's "stat" op
// reports: frames accepted (Sent) and delivered, redials of a peer that
// refused or dropped its connection (Retries), and the transport's one
// explicit loss mode, frames refused at a full per-peer send buffer
// (Shed, transport.ShedError). A climbing Shed on a "healthy" node is
// the operational signal that a peer, not consensus, is the bottleneck.
// RetryDropped is always 0; it stays only because the frozen bench/
// reads it.
type NetStats struct {
	Sent         uint64 `json:"sent"`
	Delivered    uint64 `json:"delivered"`
	Retries      uint64 `json:"retries"`
	RetryDropped uint64 `json:"retryDropped"`
	Shed         uint64 `json:"shed"`
}

// JournalStats is the journal/compaction counter snapshot a journaled
// daemon's "stat" op reports (summed across shards where a process
// hosts several). Records/Bytes cover the active (post-snapshot)
// segment; LifeRecords/LifeBytes the full history this process has
// seen, so Records < LifeRecords shows compaction is truncating.
// Degraded (with WriteErrs) flags journal append failures — a dying
// disk, visible long before a recovery comes up short.
type JournalStats struct {
	Records     int64 `json:"records"`
	Bytes       int64 `json:"bytes"`
	LifeRecords int64 `json:"lifeRecords"`
	LifeBytes   int64 `json:"lifeBytes"`
	Snapshots   int64 `json:"snapshots"`
	SnapBytes   int64 `json:"snapBytes,omitempty"`
	Gen         int   `json:"gen,omitempty"`
	WriteErrs   int64 `json:"writeErrs,omitempty"`
	Degraded    bool  `json:"degraded,omitempty"`
}

// NormalizeVal normalizes decoded JSON values for the state machine:
// integral float64s (the only JSON number form) become ints so values
// compare equal across put/get round trips and the gob wire.
func NormalizeVal(v any) any {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int(f)
	}
	return v
}
