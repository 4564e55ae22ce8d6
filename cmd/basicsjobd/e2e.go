package main

import (
	"fmt"
	"log"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
)

// e2eOptions parameterize the job-queue kill -9 survival demo: the
// shared cluster shape plus this daemon's workload size.
type e2eOptions struct {
	node.E2EOptions
	JobsPer int // jobs per submitter (default 18)
}

func (o e2eOptions) withDefaults() (e2eOptions, error) {
	var err error
	if o.E2EOptions, err = o.E2EOptions.WithDefaults("basicsjobd"); err != nil {
		return o, err
	}
	if o.JobsPer <= 0 {
		o.JobsPer = 18
	}
	return o, nil
}

// victims returns the SIGKILL set: node 0 FIRST — the smallest id is
// the stable Ω leader, i.e. the acting scheduler and lease arbiter, so
// killing it exercises scheduler failover, not just worker loss — then
// the highest-numbered nodes.
func (o e2eOptions) victims() []int {
	if o.Kill == 0 {
		return nil
	}
	v := []int{0}
	for k := 1; k < o.Kill; k++ {
		v = append(v, o.Nodes-k)
	}
	return v
}

// jobPlan is one planned job and its expected behavior.
type jobPlan struct {
	ID     string
	CostMS int
	Fails  int
	Poison bool
	Budget int
}

// planJobs derives the deterministic workload: mixed costs, a third of
// the jobs failing transiently once, and every seventh job poison.
func planJobs(opt e2eOptions) []jobPlan {
	var plans []jobPlan
	for ci := 0; ci < opt.Clients; ci++ {
		for i := 0; i < opt.JobsPer; i++ {
			p := jobPlan{
				ID:     fmt.Sprintf("c%d-j%02d", ci, i),
				CostMS: 5 + (ci*7+i*3)%20,
				Budget: 3,
			}
			if i%3 == 1 {
				p.Fails = 1
			}
			if i%7 == 3 {
				p.Poison = true
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// runE2E is the job-queue survival demo: an n-node TCP cluster under
// chaos takes a mixed job workload; mid-campaign a minority of nodes —
// node 0, the acting scheduler, among them — is SIGKILLed and later
// restarted from journals; afterwards every job must be terminal with
// exactly-once completion effects, poison jobs dead-lettered at their
// budget, and every replica in full agreement on every record.
func runE2E(opt e2eOptions) (err error) {
	opt, err = opt.withDefaults()
	if err != nil {
		return err
	}
	log.Printf("e2e: %d nodes, %d submitters x %d jobs, kill %v, chaos=%v, dir=%s",
		opt.Nodes, opt.Clients, opt.JobsPer, opt.victims(), opt.Chaos, opt.Dir)

	cfg, err := opt.Config()
	if err != nil {
		return err
	}
	cl, err := node.Launch(opt.E2EOptions, cfg, cfg.Clients, "id")
	if err != nil {
		return err
	}
	defer cl.StopAll()
	log.Printf("e2e: cluster up")

	// --- submission workload ---------------------------------------------
	plans := planJobs(opt)
	byClient := make([][]jobPlan, opt.Clients)
	for i, p := range plans {
		byClient[i/opt.JobsPer] = append(byClient[i/opt.JobsPer], p)
	}
	var submitted atomic.Int64
	var subWG sync.WaitGroup
	subErr := make(chan error, opt.Clients)
	for ci := 0; ci < opt.Clients; ci++ {
		ci := ci
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			// Client 0 pins its first node to victim 0 so submitting
			// through a dying scheduler (timeout → retry elsewhere) is part
			// of the demo. Submission is idempotent by job ID, so blind
			// retries across nodes are safe.
			at := ci % opt.Nodes
			if ci == 0 && opt.Kill > 0 {
				at = 0
			}
			rpc := clientrpc.NewClient(cfg.Clients[at])
			defer func() { rpc.Close() }()
			for _, p := range byClient[ci] {
				ok := false
				for try := 0; try < 2*opt.Nodes && !ok; try++ {
					resp, err := rpc.Call(clientrpc.Request{
						Op: "submit", Key: p.ID,
						Val: map[string]any{"cost_ms": p.CostMS, "fails": p.Fails, "poison": p.Poison, "budget": p.Budget},
					}, node.RPCTimeout)
					if err == nil && resp.OK {
						ok = true
						break
					}
					rpc.Close()
					at = (at + 1) % opt.Nodes
					rpc = clientrpc.NewClient(cfg.Clients[at])
					time.Sleep(200 * time.Millisecond)
				}
				if !ok {
					subErr <- fmt.Errorf("job %s: submission never accepted", p.ID)
					return
				}
				submitted.Add(1)
				time.Sleep(25 * time.Millisecond)
			}
		}()
	}

	// --- the kill -9 schedule --------------------------------------------
	total := int64(len(plans))
	subDone := make(chan struct{})
	killErr := make(chan error, 1)
	go func() {
		if opt.Kill == 0 {
			killErr <- nil
			return
		}
		if !waitSubmitted(&submitted, total/3, subDone) {
			log.Printf("e2e: submission ended after %d of %d jobs, before the kill point", submitted.Load(), total)
		}
		for _, v := range opt.victims() {
			log.Printf("e2e: kill -9 node %d", v)
			cl.Kill9(v)
		}
		// Long enough for the survivors to elect a new leader, lapse the
		// victims' worker leases (grace = 10 heartbeats ≈ 800ms), and
		// reassign their in-flight jobs.
		time.Sleep(2 * time.Second)
		log.Printf("e2e: restart nodes %v", opt.victims())
		killErr <- cl.Restart(opt.victims(), 15*time.Second)
	}()

	subWG.Wait()
	close(subDone)
	close(subErr)
	err = <-subErr
	if kerr := <-killErr; err == nil {
		err = kerr
	}
	// Drain — all jobs terminal, all replicas agree — then verify.
	var perNode []map[string]map[string]any
	var summary string
	if err == nil {
		log.Printf("e2e: %d jobs submitted, draining", submitted.Load())
		perNode, err = collectJobs(cl.Clients, plans)
	}
	if err == nil {
		summary, err = verify(plans, perNode[0])
	}
	if err == nil && opt.Compact {
		err = cl.CheckJournals()
	}
	if err != nil {
		dumpArtifacts(cl, perNode)
		return cl.Fail(err)
	}
	cl.LogStats()
	log.Printf("e2e: PASS — %d jobs all terminal on %d agreeing replicas: %s", len(plans), opt.Nodes, summary)
	cl.Passed()
	return nil
}

// waitSubmitted blocks until threshold jobs are submitted, or until done
// closes — every submitter finished or gave up, so the count will not
// grow — and reports whether the threshold was reached.
func waitSubmitted(submitted *atomic.Int64, threshold int64, done <-chan struct{}) bool {
	for submitted.Load() < threshold {
		select {
		case <-done:
			return false
		case <-time.After(25 * time.Millisecond):
		}
	}
	return true
}

// verify checks the replicated records against the plan: no job lost,
// every one terminal, completions exactly once, dead letters exactly at
// their budget and never a poison job completed.
func verify(plans []jobPlan, jobs map[string]map[string]any) (string, error) {
	completed, dead, nonPoisonDead := 0, 0, 0
	for _, p := range plans {
		j, ok := jobs[p.ID]
		if !ok {
			return "", fmt.Errorf("job %s lost: absent from replicated state", p.ID)
		}
		state, _ := j["state"].(string)
		effects := int(jnum(j, "effects"))
		attempt := int(jnum(j, "attempt"))
		budget := int(jnum(j, "budget"))
		switch state {
		case "completed":
			completed++
			if effects != 1 {
				return "", fmt.Errorf("job %s: exactly-once violated: %d effects (%v)", p.ID, effects, j)
			}
			if p.Poison {
				return "", fmt.Errorf("poison job %s completed: %v", p.ID, j)
			}
		case "failed":
			dead++
			if effects != 0 {
				return "", fmt.Errorf("dead-lettered job %s has %d effects (%v)", p.ID, effects, j)
			}
			if attempt != budget {
				return "", fmt.Errorf("job %s dead-lettered at attempt %d of budget %d (%v)", p.ID, attempt, budget, j)
			}
			if !p.Poison {
				nonPoisonDead++ // possible: its budget burned on lease expiries
			}
		default:
			return "", fmt.Errorf("no-lost-jobs violated: job %s ended %q (%v)", p.ID, state, j)
		}
	}
	if completed == 0 {
		return "", fmt.Errorf("nothing completed")
	}
	return fmt.Sprintf("%d completed (exactly once), %d dead-lettered (%d poison, %d budget-burned by expiries)",
		completed, dead, dead-nonPoisonDead, nonPoisonDead), nil
}

// jnum pulls a numeric field out of a JSON-decoded job record.
func jnum(j map[string]any, k string) float64 {
	f, _ := j[k].(float64)
	return f
}

// collectJobs polls every node's "jobs" op until every planned job is
// terminal on every node and all nodes return identical records.
func collectJobs(clients []string, plans []jobPlan) ([]map[string]map[string]any, error) {
	deadline := time.Now().Add(90 * time.Second)
	var last []map[string]map[string]any
	var lastWhy error
	for time.Now().Before(deadline) {
		perNode := make([]map[string]map[string]any, len(clients))
		why := func() error {
			for i, addr := range clients {
				rpc := clientrpc.NewClient(addr)
				resp, err := rpc.Call(clientrpc.Request{Op: "jobs"}, 5*time.Second)
				rpc.Close()
				if err != nil {
					return fmt.Errorf("node %d unreachable: %w", i, err)
				}
				raw, _ := resp.Val.(map[string]any)
				jobs := make(map[string]map[string]any, len(raw))
				for id, v := range raw {
					if m, ok := v.(map[string]any); ok {
						jobs[id] = m
					}
				}
				perNode[i] = jobs
			}
			for _, p := range plans {
				for i := range clients {
					j, ok := perNode[i][p.ID]
					if !ok {
						return fmt.Errorf("node %d missing job %s", i, p.ID)
					}
					if st, _ := j["state"].(string); st != "completed" && st != "failed" {
						return fmt.Errorf("node %d: job %s still %q", i, p.ID, st)
					}
					if i > 0 && !reflect.DeepEqual(perNode[0][p.ID], j) {
						return fmt.Errorf("nodes 0 and %d disagree on job %s:\n%v\n%v", i, p.ID, perNode[0][p.ID], j)
					}
				}
			}
			return nil
		}()
		last = perNode
		if why == nil {
			return perNode, nil
		}
		lastWhy = why
		time.Sleep(300 * time.Millisecond)
	}
	return last, fmt.Errorf("cluster did not drain/converge within 90s: %w", lastWhy)
}

// dumpArtifacts writes every node's view of every job next to the node
// logs and journals.
func dumpArtifacts(cl *node.Cluster, perNode []map[string]map[string]any) {
	var sb []byte
	for i, jobs := range perNode {
		ids := make([]string, 0, len(jobs))
		for id := range jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			sb = append(sb, fmt.Sprintf("node%d %s %v\n", i, id, jobs[id])...)
		}
	}
	cl.Artifact("jobs.log", sb)
}
