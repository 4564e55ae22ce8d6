package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/graph"
	"distbasics/internal/jobq"
	"distbasics/internal/local"
	"distbasics/internal/rbcast"
	"distbasics/internal/round"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// Probes time calls into one layer's public functions. Each is a
// per-layer group a workload lists when that layer is on its path;
// they run only in a traced run and never feed an end-to-end metric.

// timeLoop calls f n times and returns the median duration of one
// call, timed in ten batches so a scheduler stall spoils one batch.
func timeLoop(n int, f func(i int)) time.Duration {
	const batches = 10
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n/batches; i++ {
			f(b*(n/batches) + i)
		}
		per = append(per, float64(time.Since(t0))/float64(n/batches))
	}
	return time.Duration(median(per))
}

// layerClientRPC: a bench-owned server with an echo handler; the round
// trip is all clientrpc, JSON and socket.
func layerClientRPC(c *ctx, r *result) error {
	srv, err := clientrpc.NewServer("127.0.0.1:0", func(req clientrpc.Request) clientrpc.Response {
		return clientrpc.Response{OK: true, Val: req.Val}
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	cl := clientrpc.NewClient(srv.Addr())
	defer cl.Close()
	var h hist
	for i := 0; i < 5000; i++ {
		t0 := time.Now()
		if _, err := cl.Call(clientrpc.Request{Op: "get", Key: "0a-echo", Val: i}, kvTimeout); err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		if i >= 500 {
			h.record(time.Since(t0))
		}
	}
	r.set("clientrpc.echo_rtt_us", h.us(0.5))
	r.notef("clientrpc.echo_rtt_us  %s", &h)
	return nil
}

// layerEngine: the in-process engine's read path and the event queue
// under it.
func layerEngine(c *ctx, r *result) error {
	keys, _ := kvKeysFor(rand.New(rand.NewSource(c.seed)), 64)
	e, _, err := openEngine(c.seed, keys)
	if err != nil {
		return err
	}
	d := timeLoop(200_000, func(i int) { e.Get(keys[i%len(keys)]) })
	e.Close()
	r.set("kv.engine.lease_read_ns", float64(d))

	// Loopback: two endpoints bounce one frame; every delivery is one
	// event of the virtual-time queue.
	lb := transport.NewLoopback(2)
	for i := 0; i < 2; i++ {
		node := lb.Node(i)
		node.Handle(func(from int, frame []byte) { node.Send(from, frame) })
	}
	lb.Node(0).Send(1, []byte("ping"))
	const events = 400_000
	t0 := time.Now()
	fired := lb.Run(events)
	r.set("transport.loopback.events_s", float64(fired)/time.Since(t0).Seconds())
	r.notef("kv.engine.lease_read_ns %d; transport.loopback.events_s %.0f", d, r.m["transport.loopback.events_s"])
	return nil
}

// layerRSMSim: three rsm.Nodes on transport.Loopback, one command at a
// time, seeded. Virtual time and a deterministic queue make ticks and
// messages per command exact counts: the protocol's round complexity.
func layerRSMSim(c *ctx, r *result) error {
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	const n, cmds = 3, 1000
	lb := transport.NewLoopback(n)
	var applied rbcast.MsgID
	nodes := make([]*rsm.Node, n)
	rts := make([]*transport.Runtime, n)
	for i := range nodes {
		var opts []rsm.NodeOption
		if i == 0 {
			opts = append(opts, rsm.WithApplyHook(func(e rsm.Entry, _ amp.Time) { applied = e.ID }))
		}
		nodes[i] = rsm.NewNode(n, append(opts, rsm.WithoutAppliedLog())...)
		rts[i] = transport.NewRuntime(lb.Node(i), lb.Clock(), nodes[i].Stack, transport.WithRuntimeSeed(c.seed+int64(i)))
	}
	for _, rt := range rts {
		rt.Start()
	}
	lb.Run(500) // elect
	rng := rand.New(rand.NewSource(c.seed))
	var ticks amp.Time
	sent0 := lb.Stats().Sent.Load()
	for i := 0; i < cmds; i++ {
		var want rbcast.MsgID
		t0 := lb.Now()
		rts[0].Do(func(amp.Context) {
			want = nodes[0].Submit(nodes[0].Ctx(), rsm.Command{Op: "put", Key: fmt.Sprint(rng.Intn(64)), Val: i})
		})
		for applied != want {
			if lb.Now()-t0 > 10_000 {
				return fmt.Errorf("rsm on Loopback: command %d not applied after 10000 ticks", i)
			}
			lb.Run(lb.Now() + 1)
		}
		ticks += lb.Now() - t0
	}
	r.set("rsm.sim.ticks_per_cmd", float64(ticks)/cmds)
	r.set("rsm.sim.msgs_per_cmd", float64(lb.Stats().Sent.Load()-sent0)/cmds)
	r.notef("rsm on Loopback: %.3f ticks and %.3f messages per command (exact)", r.m["rsm.sim.ticks_per_cmd"], r.m["rsm.sim.msgs_per_cmd"])
	return nil
}

// layerJournal: FileJournal on this checkout's disk.
func layerJournal(c *ctx, r *result) error {
	rsm.RegisterWire(transport.Register)
	dir, err := c.env.dir("journal")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.journal")
	j, _, err := rsm.OpenFileJournal(path)
	if err != nil {
		return err
	}
	const records = 16_000 // just under rsm.DefaultCompactRecords
	batch := []rsm.Entry{{ID: rbcast.MsgID{Sender: 1, Seq: 1}, Payload: rsm.Command{Op: "put", Key: "0a-key-123", Val: 123}}}
	d := timeLoop(records, func(i int) {
		batch[0].ID.Seq = i
		j.SaveDecide(i, batch)
	})
	r.set("rsm.journal.append_probe_us", us(d))
	if j.Degraded() {
		return fmt.Errorf("journal probe: appends failed")
	}
	j.Close()

	t0 := time.Now()
	j, rec, err := rsm.OpenFileJournal(path)
	if err != nil {
		return err
	}
	r.set("rsm.journal.recover_ms", float64(time.Since(t0))/1e6)
	if len(rec.Decides) != records {
		return fmt.Errorf("journal probe: recovered %d of %d records", len(rec.Decides), records)
	}
	state := map[string]any{}
	for i := 0; i < 8192; i++ {
		state[fmt.Sprintf("%02x-snapshot-key-%06d", i%256, i)] = "a value of about a hundred bytes, so that eight thousand of them make a snapshot of one mebibyte....."
	}
	var installs []float64
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		if err := j.Install(&rsm.Snapshot{Frontier: records + i, State: state}); err != nil {
			return fmt.Errorf("journal probe: install: %w", err)
		}
		installs = append(installs, float64(time.Since(t0))/1e6)
	}
	r.set("rsm.journal.install_ms", median(installs))
	snapBytes := j.Stats().SnapBytes
	j.Close()
	r.notef("journal: append %.2fµs, recover %d records %.1fms, install %.1f MiB snapshot %.1fms",
		us(d), records, r.m["rsm.journal.recover_ms"], float64(snapBytes)/(1<<20), r.m["rsm.journal.install_ms"])
	return nil
}

// pair is two transport endpoints of one kind.
type pair struct {
	a, b  transport.Transport
	close func()
}

func tcpPair() (*pair, error) {
	addrs, err := allocAddrs(2)
	if err != nil {
		return nil, err
	}
	a, err := transport.NewTCP(0, addrs, transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	b, err := transport.NewTCP(1, addrs, transport.TCPOptions{})
	if err != nil {
		a.Close()
		return nil, err
	}
	return &pair{a, b, func() { a.Close(); b.Close() }}, nil
}

func resilientPair() (*pair, error) {
	p, err := tcpPair()
	if err != nil {
		return nil, err
	}
	clock := transport.NewRealClock(transport.DefaultUnit)
	pol := transport.Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, Seed: 1}
	return &pair{transport.NewResilient(p.a, clock, pol), transport.NewResilient(p.b, clock, pol), p.close}, nil
}

// pingPong returns the median round trip of a 64-byte frame.
func pingPong(p *pair) (time.Duration, error) {
	got := make(chan struct{}, 1)
	p.b.Handle(func(from int, frame []byte) { p.b.Send(from, frame) })
	p.a.Handle(func(int, []byte) { got <- struct{}{} })
	frame := make([]byte, 64)
	var h hist
	for i := 0; i < 2500; i++ {
		t0 := time.Now()
		if err := p.a.Send(1, frame); err != nil {
			return 0, err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("ping %d lost", i)
		}
		if i >= 500 {
			h.record(time.Since(t0))
		}
	}
	return time.Duration(h.quantile(0.5)), nil
}

// stream sends frames one way as fast as Send accepts them and returns
// frames delivered per second.
func stream(p *pair, frames int) (float64, error) {
	var mu sync.Mutex
	seen := 0
	done := make(chan struct{})
	p.b.Handle(func(int, []byte) {
		mu.Lock()
		seen++
		if seen == frames {
			close(done)
		}
		mu.Unlock()
	})
	frame := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		for {
			err := p.a.Send(1, frame)
			if err == nil {
				break
			}
			// Resilient sheds beyond its queue cap; wait for room.
			if _, shed := err.(*transport.ShedError); !shed {
				return 0, err
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return 0, fmt.Errorf("stream: %d of %d frames delivered after 60s", seen, frames)
	}
	return float64(frames) / time.Since(t0).Seconds(), nil
}

// layerTransport: TCP alone and under Resilient. A one-way stream far
// slower through Resilient than through TCP is its stop-and-wait link.
func layerTransport(c *ctx, r *result) error {
	for _, k := range []struct {
		name string
		mk   func() (*pair, error)
	}{{"tcp", tcpPair}, {"resilient", resilientPair}} {
		p, err := k.mk()
		if err != nil {
			return err
		}
		rtt, err := pingPong(p)
		if err == nil {
			r.set("transport."+k.name+".rtt_us", us(rtt))
			var rate float64
			if rate, err = stream(p, 10_000); err == nil {
				r.set("transport."+k.name+".stream_frames_s", rate)
			}
		}
		p.close()
		if err != nil {
			return fmt.Errorf("transport probe %s: %w", k.name, err)
		}
		r.notef("transport.%s: rtt %.1fµs, one-way stream %.0f frames/s", k.name, r.m["transport."+k.name+".rtt_us"], r.m["transport."+k.name+".stream_frames_s"])
	}

	// How late a one-tick timer fires: the price of tick quantisation.
	clock := transport.NewRealClock(transport.DefaultUnit)
	var h hist
	fired := make(chan time.Time, 1)
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		clock.AfterFunc(1, func() { fired <- time.Now() })
		h.record((<-fired).Sub(t0))
	}
	r.set("transport.clock.tick_delay_us", h.us(0.5))
	r.notef("transport.clock.tick_delay_us %s (one tick is %s)", &h, transport.DefaultUnit)
	return nil
}

// probeCodec times the codec and the frame format on frames the
// runtime really sent in the traced pass.
func probeCodec(r *result, frames [][]byte) error {
	if len(frames) == 0 {
		return fmt.Errorf("codec probe: the traced pass captured no frames")
	}
	var cd transport.Codec
	msgs := make([]amp.Message, len(frames))
	for i, f := range frames {
		m, err := cd.Decode(f)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		msgs[i] = m
	}
	dec := timeLoop(50_000, func(i int) { cd.Decode(frames[i%len(frames)]) })
	enc := timeLoop(50_000, func(i int) { cd.Encode(msgs[i%len(msgs)]) })
	var buf []byte
	rt := timeLoop(200_000, func(i int) {
		buf, _ = transport.AppendFrame(buf[:0], frames[i%len(frames)], 0)
		transport.DecodeFrame(buf, 0)
	})
	r.set("transport.codec.encode_ns", float64(enc))
	r.set("transport.codec.decode_ns", float64(dec))
	r.set("transport.frame.roundtrip_ns", float64(rt))
	r.notef("codec on %d captured frames: encode %dns decode %dns; frame append+decode %dns", len(frames), enc, dec, rt)
	return nil
}

// layerJobqApply: the queue state machine alone, one job's four
// commands per iteration.
func layerJobqApply(c *ctx, r *result) error {
	st := jobq.NewState()
	st.Apply(jobq.Cmd{Kind: jobq.CmdJoin, Worker: 1})
	d := timeLoop(200_000, func(i int) {
		id := fmt.Sprint("j", i)
		st.Apply(jobq.Cmd{Kind: jobq.CmdSubmit, Job: id, Budget: 3})
		st.Apply(jobq.Cmd{Kind: jobq.CmdAssign, Job: id, Worker: 1, Attempt: 1})
		st.Apply(jobq.Cmd{Kind: jobq.CmdStart, Job: id, Worker: 1, Attempt: 1})
		st.Apply(jobq.Cmd{Kind: jobq.CmdComplete, Job: id, Worker: 1, Attempt: 1})
	})
	if got := st.Counters().Completions; got != 200_000 {
		return fmt.Errorf("jobq probe: %d of 200000 lifecycles completed", got)
	}
	r.set("jobq.apply_ns", float64(d)/4)
	r.notef("jobq.apply_ns %.0f (per command of a submit-assign-start-complete lifecycle)", r.m["jobq.apply_ns"])
	return nil
}

// layerVerify: what DPOR saves — the same explorations without it, at
// their own pinned counts — and the synchronous round engine, which no
// workload runs yet.
func layerVerify(c *ctx, r *result) error {
	t0 := time.Now()
	full, miss := exploreSHM(false)
	r.gate(miss == "", "%s", miss)
	r.set("shm.full_executions", float64(full))
	r.set("shm.full_exec_s", float64(full)/time.Since(t0).Seconds())
	r.set("shm.pruning_ratio", float64(full)/r.m["shm.dpor_executions"])

	t0 = time.Now()
	full, miss = exploreFLP(false)
	r.gate(miss == "", "%s", miss)
	r.set("flp.full_configs", float64(full))
	r.set("flp.full_configs_s", float64(full)/time.Since(t0).Seconds())
	r.set("flp.pruning_ratio", float64(full)/r.m["flp.dpor_configs"])

	const ring = 1 << 16
	procs := local.NewColeVishkinRing(ring)
	sys, err := round.NewSystem(graph.Ring(ring), procs)
	if err != nil {
		return err
	}
	t0 = time.Now()
	res, err := sys.Run(local.CVIterations(ring) + 8)
	if err != nil {
		return err
	}
	spent := time.Since(t0)
	colors := make([]int, ring)
	for i, p := range procs {
		colors[i], _ = p.Output().(int)
	}
	r.gate(local.VerifyColoring(colors, 3), "Cole-Vishkin on a %d-ring did not produce a proper 3-colouring", ring)
	r.set("round.ns_per_proc_round", float64(spent)/float64(ring*res.Rounds))
	r.notef("without DPOR: shm %v executions (x%.1f), flp %v configs (x%.1f); round engine %.0f ns per process-round",
		r.m["shm.full_executions"], r.m["shm.pruning_ratio"], r.m["flp.full_configs"], r.m["flp.pruning_ratio"], r.m["round.ns_per_proc_round"])
	return nil
}
