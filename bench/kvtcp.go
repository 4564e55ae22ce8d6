package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/check"
	"distbasics/internal/clientrpc"
)

// The kv-tcp-* workloads share one deployment: 3 basicskv serve
// processes, 2 shards, journals on, the default 2 ms tick. No delay is
// injected between the processes: they share localhost, so every
// latency here is timers plus CPU, not network.
const (
	kvProcs   = 3
	kvShards  = 2
	kvKeys    = 512
	kvTimeout = 15 * time.Second

	// leaseFast separates the two read classes from outside: a lease
	// read is a socket round trip (tens of µs), a consensus read waits
	// at least one 2 ms clock tick.
	leaseFast = time.Millisecond
)

// kvCluster is a running basicskv deployment.
type kvCluster struct {
	*cluster
	keys   []string
	probe  []string // sampled keys whose full histories are checked
	holder int      // the process serving lease reads for every shard
}

// kvKeysFor derives the load and probe keys from the seed. Keys spread
// over two-hex-digit prefixes, which is how basicskv routes to shards.
func kvKeysFor(rng *rand.Rand, n int) (load, probe []string) {
	tag := rng.Intn(1 << 20)
	load = make([]string, n)
	for i := range load {
		load[i] = fmt.Sprintf("%02x-k%05x-%d", rng.Intn(256), tag, i)
	}
	for i := 0; i < 4; i++ {
		probe = append(probe, fmt.Sprintf("%02x-p%05x-%d", i*64+rng.Intn(64), tag, i))
	}
	return load, probe
}

// startKV performs one full set-up — spawn, all ready, preload, lease
// warm — and returns the cluster with the time that took. The caller
// stops the cluster.
func startKV(e *env, rng *rand.Rand) (*kvCluster, time.Duration, error) {
	dir, err := e.dir("kv")
	if err != nil {
		return nil, 0, err
	}
	peers := make([][]string, kvShards)
	journals := make([][]string, kvShards)
	for s := range peers {
		if peers[s], err = allocAddrs(kvProcs); err != nil {
			return nil, 0, err
		}
		for i := 0; i < kvProcs; i++ {
			journals[s] = append(journals[s], filepath.Join(dir, fmt.Sprintf("shard%d-proc%d.journal", s, i)))
		}
	}
	clients, err := allocAddrs(kvProcs)
	if err != nil {
		return nil, 0, err
	}
	cfgPath := filepath.Join(dir, "kv.json")
	if err := writeJSON(cfgPath, map[string]any{
		"shards": kvShards, "peers": peers, "clients": clients, "journals": journals,
	}); err != nil {
		return nil, 0, err
	}
	kc := &kvCluster{cluster: &cluster{
		dir: dir, bin: filepath.Join(e.bin, "basicskv"), clients: clients,
		procs: make([]*proc, kvProcs),
		args: func(i int) []string {
			return []string{"serve", "-config", cfgPath, "-self", fmt.Sprint(i)}
		},
	}}
	kc.keys, kc.probe = kvKeysFor(rng, kvKeys)

	t0 := time.Now()
	for i := 0; i < kvProcs; i++ {
		if err := kc.start(i); err != nil {
			kc.stop()
			return nil, 0, err
		}
	}
	err = kc.bringUp()
	took := time.Since(t0)
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, kc.logTail())
		kc.stop()
		return nil, 0, err
	}
	return kc, took, nil
}

// bringUp is set-up after spawn: ready, preload, lease warm.
func (kc *kvCluster) bringUp() error {
	if err := kc.waitReady(20 * time.Second); err != nil {
		return err
	}
	// Preload every 8th key over two connections so reads mostly find
	// values.
	var wg sync.WaitGroup
	var fail atomic.Value
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clientrpc.NewClient(kc.clients[c])
			defer cl.Close()
			for i := c * 8; i < len(kc.keys); i += 16 {
				if err := cl.Put(kc.keys[i], i, kvTimeout); err != nil {
					fail.CompareAndSwap(nil, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err, _ := fail.Load().(error); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return kc.warmLease(10 * time.Second)
}

// shardKeys returns one load key per shard.
func (kc *kvCluster) shardKeys() []string {
	out := make([]string, 0, kvShards)
	for s := 0; s < kvShards; s++ {
		lo, hi := fmt.Sprintf("%02x", 256*s/kvShards), fmt.Sprintf("%02x", 256*(s+1)/kvShards-1)
		for _, k := range kc.keys {
			if k[:2] >= lo && k[:2] <= hi {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// warmLease waits until one process answers a get for every shard at
// lease-read speed and records it as the lease holder. The median of
// five gets is compared, so one slow reply does not hide the lease.
func (kc *kvCluster) warmLease(deadline time.Duration) error {
	cls := make([]*clientrpc.Client, len(kc.clients))
	for i, a := range kc.clients {
		cls[i] = clientrpc.NewClient(a)
		defer cls[i].Close()
	}
	keys := kc.shardKeys()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		for i, cl := range cls {
			fast := true
			for _, k := range keys {
				var lat []float64
				for r := 0; r < 5; r++ {
					t0 := time.Now()
					if _, err := cl.Get(k, kvTimeout); err != nil {
						return fmt.Errorf("lease warm: %w", err)
					}
					lat = append(lat, float64(time.Since(t0)))
				}
				if median(lat) >= float64(leaseFast) {
					fast = false
					break
				}
			}
			if fast {
				kc.holder = i
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("no process serves lease reads for every shard after %s", deadline)
}

// others returns the processes that are not the lease holder.
func (kc *kvCluster) others() []int {
	var out []int
	for i := 0; i < kvProcs; i++ {
		if i != kc.holder {
			out = append(out, i)
		}
	}
	return out
}

// kvStat is the stat reply of every running process, summed.
type kvStat struct {
	applied  int
	journal  clientrpc.JournalStats
	degraded bool
}

func (kc *kvCluster) stat() (kvStat, error) {
	var sum kvStat
	for i, addr := range kc.clients {
		if kc.procs[i] == nil {
			continue
		}
		cl := clientrpc.NewClient(addr)
		resp, err := cl.Stats(5 * time.Second)
		cl.Close()
		if err != nil {
			return sum, fmt.Errorf("stat proc %d: %w", i, err)
		}
		sum.applied += resp.Applied
		if j := resp.Journal; j != nil {
			sum.journal.LifeRecords += j.LifeRecords
			sum.journal.LifeBytes += j.LifeBytes
			sum.journal.Snapshots += j.Snapshots
			sum.degraded = sum.degraded || j.Degraded
		}
	}
	return sum, nil
}

// setupReps is how often a cluster workload sets its deployment up.
const setupReps = 5

// repeatSetup sets a deployment up reps times, stops all but the last
// and reports the median set-up time in seconds with the one it kept,
// so setup_s does not hang on one slow fork. A set-up in which a
// daemon died (errProcDied) is made again, at most twice in a run, and
// counted in r as proc.setup_retries; its time is not a sample.
func repeatSetup[T any](r *result, reps int, start func(rep int) (T, time.Duration, error), stop func(T)) (kept T, medianS float64, err error) {
	var took []float64
	retries := 0
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			stop(kept)
		}
		var d time.Duration
		kept, d, err = start(rep)
		for err != nil && errors.Is(err, errProcDied) && retries < 2 {
			retries++
			r.notef("set-up %d made again: %v", rep, err)
			kept, d, err = start(rep)
		}
		if err != nil {
			return kept, 0, err
		}
		took = append(took, d.Seconds())
	}
	r.set("proc.setup_retries", float64(retries))
	return kept, median(took), nil
}

// ---------------------------------------------------------------------------
// Probers: sampled-key histories for the linearizability gate.
// ---------------------------------------------------------------------------

const (
	probersPerKey = 2
	proberOps     = 24 // per prober: 2 x 24 = 48 ops per key, under check.MaxOps
)

// store is the op surface a prober drives: one client connection, or
// the in-process engine.
type store interface {
	put(key string, val int) error
	get(key string) (any, error)
	close()
}

type rpcStore struct{ cl *clientrpc.Client }

func (s rpcStore) put(key string, val int) error { return s.cl.Put(key, val, kvTimeout) }
func (s rpcStore) get(key string) (any, error)   { return s.cl.Get(key, kvTimeout) }
func (s rpcStore) close()                        { s.cl.Close() }

// probers records the full history of every probe key while the load
// runs: per key, probersPerKey paced processes on connections to
// different servers alternate unique writes and reads. They are
// separate from the load connections and together issue about 15
// operations a second. connect opens a store on server srv of servers;
// alive reports which servers may be dialled. A prober whose operation
// fails leaves it pending, takes a fresh process id (a process with a
// pending operation may not issue another) and moves to the next live
// server.
type probers struct {
	rec    *check.Recorder
	nextID atomic.Int64
	wg     sync.WaitGroup
}

func startProbers(keys []string, span time.Duration, servers int, connect func(srv int) store, alive func(srv int) bool) *probers {
	p := &probers{rec: check.NewRecorder()}
	p.nextID.Store(int64(len(keys) * probersPerKey))
	gap := span / (proberOps + 1)
	for ki, key := range keys {
		for j := 0; j < probersPerKey; j++ {
			p.wg.Add(1)
			go func(key string, proc int) {
				defer p.wg.Done()
				srv := proc % servers
				st := connect(srv)
				defer func() { st.close() }()
				move := func() {
					srv = (srv + 1) % servers
					st.close()
					st = connect(srv)
				}
				for i := 0; i < proberOps; i++ {
					time.Sleep(gap)
					for !alive(srv) {
						move()
					}
					var err error
					if (proc+i)%2 == 0 {
						v := proc*1000 + i
						inv := p.rec.Call(proc, check.KeyedOp{Key: key, Op: check.WriteOp{V: v}})
						if err = st.put(key, v); err == nil {
							inv.Return(nil)
						}
					} else {
						inv := p.rec.Call(proc, check.KeyedOp{Key: key, Op: check.ReadOp{}})
						var v any
						if v, err = st.get(key); err == nil {
							inv.Return(v)
						}
					}
					if err != nil {
						proc = int(p.nextID.Add(1))
						move()
					}
				}
			}(key, ki*probersPerKey+j)
		}
	}
	return p
}

// gate waits for the probers and puts their history through the
// linearizability checker.
func (p *probers) gate(r *result, keys int) error {
	p.wg.Wait()
	h := p.rec.History()
	res, err := check.Linearizable(check.RegisterArraySpec{}, h)
	if err != nil {
		return fmt.Errorf("linearizability checker: %w", err)
	}
	r.gate(res.OK, "prober history of %d ops on %d sampled keys does not linearize", len(h), keys)
	r.notef("gate: prober history %d ops on %d keys linearizes=%v", len(h), keys, res.OK)
	return nil
}

// ---------------------------------------------------------------------------
// The three workloads.
// ---------------------------------------------------------------------------

// kvLoad is what a kv-tcp run shares: cluster, window, generator and
// server CPU accounting, stat deltas, the prober gate.
type kvLoad struct {
	kc     *kvCluster
	pr     *probers
	cpu0   time.Duration
	srv0   procUsage
	stat0  kvStat
	wall0  time.Time
	killed atomic.Int32 // index of the killed process, -1 for none
}

// beginKV builds and sets up the deployment and starts the probers,
// which pace their operations over span.
func beginKV(c *ctx, r *result, span time.Duration) (*kvLoad, error) {
	if err := c.env.buildDaemons(); err != nil {
		return nil, err
	}
	kc, setup, err := repeatSetup(r, setupReps,
		func(int) (*kvCluster, time.Duration, error) { return startKV(c.env, c.rng) },
		func(kc *kvCluster) { kc.stop() })
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)
	l := &kvLoad{kc: kc}
	if l.stat0, err = kc.stat(); err != nil {
		kc.stop()
		return nil, err
	}
	l.killed.Store(-1)
	l.pr = startProbers(kc.probe, span, kvProcs,
		func(srv int) store { return rpcStore{clientrpc.NewClient(kc.clients[srv])} },
		func(srv int) bool { return int(l.killed.Load()) != srv })
	l.cpu0, l.srv0, l.wall0 = selfCPU(), usageOf(kc.pids()), time.Now()
	return l, nil
}

// finish closes a kv-tcp run: resource and stat deltas per operation,
// the journal and linearizability gates, then teardown.
func (l *kvLoad) finish(r *result, ops float64) error {
	defer l.kc.stop()
	wall := time.Since(l.wall0)
	gen, srv := selfCPU()-l.cpu0, usageOf(l.kc.pids())
	r.set("client.gen_cpu_share", gen.Seconds()/wall.Seconds())
	if err := l.pr.gate(r, len(l.kc.probe)); err != nil {
		return err
	}
	st, err := l.kc.stat()
	if err != nil {
		return err
	}
	r.gate(!st.degraded, "a journal reports degraded=true")
	if l.killed.Load() < 0 && ops > 0 {
		// Deltas over the whole run (warm-up, probers included), so
		// these are per-operation costs with a small constant overhead.
		r.set("proc.server_cpu_us_per_op", float64((srv.cpu-l.srv0.cpu).Microseconds())/ops)
		r.set("rsm.applied_per_op", float64(st.applied-l.stat0.applied)/kvProcs/ops)
		r.set("rsm.journal.records_per_write", float64(st.journal.LifeRecords-l.stat0.journal.LifeRecords)/kvProcs/ops)
		r.set("rsm.journal.bytes_per_write", float64(st.journal.LifeBytes-l.stat0.journal.LifeBytes)/kvProcs/ops)
	}
	r.set("proc.server_rss_mb", srv.rssMB)
	r.set("rsm.journal.snapshots", float64(st.journal.Snapshots))
	return nil
}

// seqKey picks the load key for a connection's seq-th operation.
func seqKey(keys []string, rng *rand.Rand) string { return keys[rng.Intn(len(keys))] }

func runKVWrite(c *ctx) (*result, error) {
	r := newResult()
	l, err := beginKV(c, r, warmUp+c.seconds)
	if err != nil {
		return nil, err
	}
	w := newWindow(c.seconds)
	// Two connections, to process 0 and process 1, 100 % put.
	ops := make([]func(int) error, 2)
	for i := range ops {
		cl := clientrpc.NewClient(l.kc.clients[i])
		defer cl.Close()
		rng := rand.New(rand.NewSource(c.seed*31 + int64(i)))
		ops[i] = func(seq int) error { return cl.Put(seqKey(l.kc.keys, rng), seq, kvTimeout) }
	}
	all := mergeClasses(w, runConns(w, ops)...)
	r.count(all)
	r.throughput("write_ops_s", all)
	r.latency("write", all, true)
	r.alias("write_ops_s", "write_p50_us", "write_p90_us")
	return r, l.finish(r, float64(all.lat.count()))
}

// getLoop is a closed loop of gets on one connection to process srv.
func getLoop(l *kvLoad, srv int, seed int64) (op func(int) error, closeConn func()) {
	cl := clientrpc.NewClient(l.kc.clients[srv])
	rng := rand.New(rand.NewSource(seed))
	return func(int) error {
		_, err := cl.Get(seqKey(l.kc.keys, rng), kvTimeout)
		return err
	}, cl.Close
}

func runKVRead(c *ctx) (*result, error) {
	r := newResult()
	// Two phases, two connections in both: first both at the lease
	// holder (lease reads) for a quarter of the window, then one at each
	// follower (consensus reads) for the rest. Run side by side the
	// consensus reads keep the holder busy and the lease-read median
	// follows whatever the two happen to interleave into; apart, each
	// class is steady. A lease read is CPU-bound and there are twenty
	// thousand of them a second, so its phase is the short one and its
	// numbers are not the ones the driver gates (see README).
	leaseFor := max(c.seconds/4/time.Second*time.Second, time.Second)
	quorumFor := max(c.seconds-leaseFor, time.Second)
	l, err := beginKV(c, r, 2*warmUp+leaseFor+quorumFor)
	if err != nil {
		return nil, err
	}
	phase := func(d time.Duration, servers []int, seedBase int64) *class {
		w := newWindow(d)
		ops := make([]func(int) error, len(servers))
		for i, srv := range servers {
			var closeConn func()
			ops[i], closeConn = getLoop(l, srv, c.seed*31+seedBase+int64(i))
			defer closeConn()
		}
		return mergeClasses(w, runConns(w, ops)...)
	}
	lease := phase(leaseFor, []int{l.kc.holder, l.kc.holder}, 0)
	quorum := phase(quorumFor, l.kc.others(), 2)
	r.count(lease)
	r.count(quorum)
	r.throughput("lease_read_ops_s", lease)
	r.latency("lease_read", lease, true)
	r.throughput("quorum_read_ops_s", quorum)
	r.latency("quorum_read", quorum, true)
	// The classes are told apart by where the connections point; a
	// lease that lapsed mid-run would put consensus reads into phase
	// one. Medians, because on a busy host a tenth of the lease reads
	// can take a millisecond and still be lease reads.
	r.gate(r.m["lease_read_p50_us"] < us(leaseFast), "phase one median %.0fµs is not a lease read", r.m["lease_read_p50_us"])
	r.gate(r.m["quorum_read_p50_us"] >= us(leaseFast), "phase two median %.0fµs is not a consensus read", r.m["quorum_read_p50_us"])
	r.alias("quorum_read_ops_s", "quorum_read_p50_us", "quorum_read_p90_us")
	return r, l.finish(r, float64(lease.lat.count()+quorum.lat.count()))
}

func runKVFailover(c *ctx) (*result, error) {
	r := newResult()
	l, err := beginKV(c, r, warmUp+c.seconds)
	if err != nil {
		return nil, err
	}
	w := newWindow(c.seconds)
	// Two connections to the two processes that will survive; every
	// put writes a key of its own so the read-back can tell exactly
	// which acknowledged writes must exist.
	victim := l.kc.holder
	killAt := w.begin.Add(w.length() / 3)
	type acked struct {
		key string
		val int
		at  time.Time
		lat time.Duration
	}
	acks := make([][]acked, 2)
	ops := make([]func(int) error, 2)
	tag := c.rng.Intn(1 << 20)
	for i, srv := range l.kc.others() {
		i := i
		cl := clientrpc.NewClient(l.kc.clients[srv])
		defer cl.Close()
		ops[i] = func(seq int) error {
			key := fmt.Sprintf("%02x-f%05x-%d-%d", (seq*37+i*101)%256, tag, i, seq)
			t0 := time.Now()
			if err := cl.Put(key, seq, kvTimeout); err != nil {
				return err
			}
			t1 := time.Now()
			acks[i] = append(acks[i], acked{key, seq, t1, t1.Sub(t0)})
			return nil
		}
	}
	var killed time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(killAt))
		l.killed.Store(int32(victim))
		l.kc.kill9(victim)
		killed = time.Now()
	}()
	all := mergeClasses(w, runConns(w, ops)...)
	<-done
	r.count(all)

	// Outage: kill → first commit acknowledged afterwards, on any
	// connection. The operations in flight at the kill (one per
	// connection) are the ones a client sees hang; their latencies are
	// this workload's p50/p90.
	var firstAck time.Time
	var straddle []float64 // µs
	for i := range acks {
		j := sort.Search(len(acks[i]), func(j int) bool { return acks[i][j].at.After(killed) })
		if j == len(acks[i]) {
			r.gate(false, "connection %d acknowledged nothing after the kill", i)
			continue
		}
		a := acks[i][j]
		if firstAck.IsZero() || a.at.Before(firstAck) {
			firstAck = a.at
		}
		straddle = append(straddle, us(a.lat))
	}
	if !firstAck.IsZero() {
		r.set("outage_ms", float64(firstAck.Sub(killed))/1e6)
	}
	// Two samples: the median is their mean, and the slower of the two
	// stands in for p90, which no sample-count rule would let us quote.
	r.set("p50_us", median(straddle))
	r.set("p90_us", slices.Max(append(straddle, 0)))
	// Throughput after the fault: the median one-second bucket among
	// the seconds that began once service had resumed, which is what
	// the surviving majority sustains. The outage itself is p50_us and
	// outage_ms; a mean over the window would fold it in a second time
	// and move with every stall of the host.
	if !firstAck.IsZero() {
		first := int((firstAck.Sub(w.begin) + time.Second - 1) / time.Second)
		r.gate(first < len(all.bk.per), "no whole second of the window is left after the outage")
		if first < len(all.bk.per) {
			r.set("failover_write_ops_s", median(all.bk.per[first:]))
		}
	}
	r.set("ops_s", r.m["failover_write_ops_s"])
	r.notef("kv-tcp-failover: killed proc %d at +%.1fs; outage %.0f ms; puts in flight at the kill took %.0f µs (n=%d); %d acked, %.0f a second once service resumed",
		victim, killed.Sub(w.begin).Seconds(), r.m["outage_ms"], straddle, len(straddle), all.lat.count(), r.m["failover_write_ops_s"])

	// Read back every acknowledged write from a survivor.
	cl := clientrpc.NewClient(l.kc.clients[l.kc.others()[0]])
	defer cl.Close()
	lost, total := 0, 0
	for i := range acks {
		for _, a := range acks[i] {
			total++
			if v, err := cl.Get(a.key, kvTimeout); err != nil || v != a.val {
				lost++
			}
		}
	}
	r.gate(lost == 0, "%d of %d acknowledged writes lost after failover", lost, total)
	r.notef("gate: read back %d acknowledged writes from a survivor, %d lost", total, lost)
	return r, l.finish(r, float64(all.lat.count()))
}
