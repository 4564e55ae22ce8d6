package main

import (
	"fmt"
	"path/filepath"
	"time"

	"distbasics/internal/clientrpc"
)

// jobq-tcp-steady: 5 basicsjobd serve processes, journals on, default
// tick and scheduler pacing. Two closed-loop connections, to nodes 1
// and 2, each issue blocking "run" requests: a job is submitted,
// assigned, started and completed — four consensus commands — before
// the reply. No delay is injected between the nodes.
const (
	jobNodes   = 5
	jobTimeout = 30 * time.Second
)

var jobSpec = map[string]any{"cost_ms": 2, "budget": 3}

type jobCluster struct {
	*cluster
}

// jobStat is node 0's view of the replicated queue counters plus the
// transport counters summed over every node.
type jobStat struct {
	queue    map[string]float64
	net      clientrpc.NetStats
	degraded bool
}

func (jc *jobCluster) stat() (jobStat, error) {
	st := jobStat{queue: map[string]float64{}}
	for i, addr := range jc.clients {
		cl := clientrpc.NewClient(addr)
		resp, err := cl.Stats(5 * time.Second)
		cl.Close()
		if err != nil {
			return st, fmt.Errorf("stat node %d: %w", i, err)
		}
		if n := resp.Net; n != nil {
			st.net.Sent += n.Sent
			st.net.Retries += n.Retries
			st.net.RetryDropped += n.RetryDropped
			st.net.Shed += n.Shed
		}
		if j := resp.Journal; j != nil {
			st.degraded = st.degraded || j.Degraded
		}
		if i == 0 {
			m, _ := resp.Val.(map[string]any)
			for k, v := range m {
				if f, ok := v.(float64); ok {
					st.queue[k] = f
				}
			}
		}
	}
	return st, nil
}

func runJob(cl *clientrpc.Client, id string) error {
	resp, err := cl.Call(clientrpc.Request{Op: "run", Key: id, Val: jobSpec}, jobTimeout)
	if err != nil {
		return err
	}
	if m, _ := resp.Val.(map[string]any); m["state"] != "completed" {
		return fmt.Errorf("job %s ended %v", id, m["state"])
	}
	return nil
}

// startJobq is one set-up: spawn, every node ready, then one job run
// to completion through each load node — the first moment the queue
// serves a client.
func startJobq(e *env, tag string) (*jobCluster, time.Duration, error) {
	dir, err := e.dir("jobq")
	if err != nil {
		return nil, 0, err
	}
	peers, err := allocAddrs(jobNodes)
	if err != nil {
		return nil, 0, err
	}
	clients, err := allocAddrs(jobNodes)
	if err != nil {
		return nil, 0, err
	}
	journals := make([]string, jobNodes)
	for i := range journals {
		journals[i] = filepath.Join(dir, fmt.Sprintf("node%d.journal", i))
	}
	cfgPath := filepath.Join(dir, "cluster.json")
	if err := writeJSON(cfgPath, map[string]any{"peers": peers, "clients": clients, "journals": journals}); err != nil {
		return nil, 0, err
	}
	jc := &jobCluster{&cluster{
		dir: dir, bin: filepath.Join(e.bin, "basicsjobd"), clients: clients,
		procs: make([]*proc, jobNodes),
		args: func(i int) []string {
			return []string{"serve", "-config", cfgPath, "-id", fmt.Sprint(i)}
		},
	}}
	t0 := time.Now()
	for i := 0; i < jobNodes; i++ {
		if err := jc.start(i); err != nil {
			jc.stop()
			return nil, 0, err
		}
	}
	err = func() error {
		if err := jc.waitReady(20 * time.Second); err != nil {
			return err
		}
		for _, node := range []int{1, 2} {
			cl := clientrpc.NewClient(clients[node])
			err := runJob(cl, fmt.Sprintf("%s-first-%d", tag, node))
			cl.Close()
			if err != nil {
				return fmt.Errorf("first job at node %d: %w", node, err)
			}
		}
		return nil
	}()
	took := time.Since(t0)
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, jc.logTail())
		jc.stop()
		return nil, 0, err
	}
	return jc, took, nil
}

func runJobq(c *ctx) (*result, error) {
	r := newResult()
	if err := c.env.buildDaemons(); err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("j%05x", c.rng.Intn(1<<20))
	jc, setup, err := repeatSetup(r, setupReps,
		func(rep int) (*jobCluster, time.Duration, error) {
			return startJobq(c.env, fmt.Sprintf("%s-s%d", tag, rep))
		},
		func(jc *jobCluster) { jc.stop() })
	if err != nil {
		return nil, err
	}
	defer jc.stop()
	r.set("setup_s", setup)

	st0, err := jc.stat()
	if err != nil {
		return nil, err
	}
	w := newWindow(c.seconds)
	cpu0, srv0, wall0 := selfCPU(), usageOf(jc.pids()), time.Now()
	ops := make([]func(int) error, 2)
	for i, node := range []int{1, 2} {
		cl := clientrpc.NewClient(jc.clients[node])
		defer cl.Close()
		ops[i] = func(seq int) error { return runJob(cl, fmt.Sprintf("%s-c%d-%d", tag, i, seq)) }
	}
	all := mergeClasses(w, runConns(w, ops)...)
	wall := time.Since(wall0)
	gen, srv := selfCPU()-cpu0, usageOf(jc.pids())
	st1, err := jc.stat()
	if err != nil {
		return nil, err
	}

	r.count(all)
	r.throughput("jobs_s", all)
	r.set("job_p50_ms", all.lat.us(0.5)/1e3)
	r.set("client.job_p99_ms", all.lat.us(0.99)/1e3)
	r.notef("%-22s %s (p90=%.1fµs)", "job latency", &all.lat, all.lat.us(0.9))
	r.set("ops_s", r.m["jobs_s"])
	r.set("p50_us", all.lat.us(0.5))
	r.set("p90_us", all.lat.us(0.9))
	r.set("client.gen_cpu_share", gen.Seconds()/wall.Seconds())
	r.set("proc.server_rss_mb", srv.rssMB)

	// Deltas cover warm-up and window, so they are divided by every
	// job run in that span, which the submitted counter gives.
	d := func(k string) float64 { return st1.queue[k] - st0.queue[k] }
	jobs := d("submitted")
	r.gate(all.failed == 0, "%d of %d run requests failed", all.failed, all.attempted)
	r.gate(d("completions") >= jobs, "completions %v < jobs %v", d("completions"), jobs)
	r.gate(st1.queue["deadLetters"] == 0, "%v dead letters", st1.queue["deadLetters"])
	r.gate(!st1.degraded, "a journal reports degraded=true")
	r.notef("gate: %v jobs, %v completions, %v dead letters, %d failed replies", jobs, d("completions"), st1.queue["deadLetters"], all.failed)
	if jobs > 0 {
		r.set("proc.server_cpu_us_per_op", float64((srv.cpu-srv0.cpu).Microseconds())/jobs)
		r.set("jobq.assigns_per_job", d("assigns")/jobs)
		r.set("jobq.stale_per_job", d("stale")/jobs)
		r.set("transport.jobq.sent_per_job", float64(st1.net.Sent-st0.net.Sent)/jobs)
	}
	r.set("jobq.retries", d("retries"))
	r.set("jobq.expiries", d("expiries"))
	r.set("jobq.dead_letters", st1.queue["deadLetters"])
	r.set("jobq.ticks_per_job", r.m["job_p50_ms"]/2) // the daemons' default unit_ms is 2
	r.set("transport.jobq.retries", float64(st1.net.Retries-st0.net.Retries))
	r.set("transport.jobq.shed", float64(st1.net.Shed-st0.net.Shed))
	return r, nil
}
