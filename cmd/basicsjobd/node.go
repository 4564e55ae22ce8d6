package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/jobq"
	"distbasics/internal/node"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// jobSpec is the replicated job payload: what a submitted job costs to
// run and how it behaves. It rides inside jobq.Cmd through consensus,
// the wire, and the journal, so every worker — including one that
// picks the job up after a reassignment — derives the same outcome for
// the same attempt.
type jobSpec struct {
	CostMS int  // execution time, milliseconds
	Fails  int  // attempts 1..Fails fail transiently
	Poison bool // every attempt fails: must dead-letter
}

// server is one running basicsjobd node: a queue replica (jobq.Node =
// rsm replica + scheduler driver) on the shared skeleton of
// internal/node, co-located with its worker runner, plus the line-JSON
// RPC verb table.
type server struct {
	id     int
	nd     *jobq.Node
	runner *jobq.Runner
	rep    *node.Replica
	rpc    *clientrpc.Server

	// waiters completes "submit"/"run" proposals at their local apply;
	// jobWaiters holds "run" RPCs blocked until a job turns terminal and
	// is touched only inside the runtime's event loop.
	waiters    node.Waiters[jobq.Event]
	jobWaiters map[string][]chan jobq.Job
	runTimeout time.Duration
}

// runServe is the `basicsjobd serve` entrypoint; it returns with the node
// serving. Crash-stop process model: no graceful shutdown, the journal
// and the peers' anti-entropy carry a kill -9 through restart.
func runServe(cfgPath string, id int) (*server, error) {
	cfg := &node.Config{}
	if err := node.Load(cfgPath, cfg); err != nil {
		return nil, err
	}
	// Journal records carry jobq.Cmd and jobSpec through `any` fields,
	// and gob decodes by registered name.
	jobq.RegisterWire(transport.Register)
	transport.Register(jobSpec{})

	s := &server{id: id, jobWaiters: make(map[string][]chan jobq.Job), runTimeout: runTimeout}
	clock := transport.NewRealClock(transport.DefaultUnit)
	_, err := cfg.Start(id, clock, func(r *node.Replica, opts ...rsm.NodeOption) *rsm.Node {
		s.rep = r
		// jobq.New installs the apply hook before recovery replay, so a
		// restarted node's queue state is rebuilt here, before any traffic.
		s.nd = jobq.New(len(cfg.Peers), jobqConfig(id), opts...)
		s.nd.Subscribe(s.onQueueEvent)
		s.runner = s.newRunner(clock)
		return s.nd.RSM
	})
	if err != nil {
		return nil, err
	}
	// This is the same Start used on fresh boot and after a kill -9 — in
	// the latter case the journal-recovered state still assigns this
	// worker its pre-crash attempts, and Start re-executes them under
	// their original tokens.
	s.rep.RT.Do(func(amp.Context) { s.runner.Start() })

	// Fallback pulse (the healthy path schedules on apply): every replica
	// drives Step; only the Ω leader acts.
	var pulse func()
	pulse = func() {
		s.rep.RT.Do(func(amp.Context) { s.nd.Step(s.nd.Ctx()) })
		clock.AfterFunc(s.nd.Config().StepEvery, pulse)
	}
	clock.AfterFunc(s.nd.Config().StepEvery, pulse)

	if s.rpc, err = clientrpc.NewServer(cfg.Clients[id], s.handle); err != nil {
		s.rep.Close()
		return nil, fmt.Errorf("client listen %s: %w", cfg.Clients[id], err)
	}
	log.Printf("basicsjobd: node %d up: peers=%s clients=%s journal=%s grace=%d ticks",
		id, s.rep.Addr(), s.rpc.Addr(), cfg.Journals[id], s.nd.Config().Grace)
	return s, nil
}

// newRunner attaches the worker runner. It executes inside the event
// loop; its Defer rides the real clock back into the loop.
func (s *server) newRunner(clock transport.Clock) *jobq.Runner {
	r := jobq.NewRunner(s.nd, s.id)
	r.Defer = func(d amp.Time, f func()) {
		clock.AfterFunc(d, func() { s.rep.RT.Do(func(amp.Context) { f() }) })
	}
	r.Cost = func(j jobq.Job) amp.Time {
		spec, _ := j.Payload.(jobSpec)
		return max(1, amp.Time(time.Duration(spec.CostMS)*time.Millisecond/transport.DefaultUnit))
	}
	r.Work = func(j jobq.Job) (any, string, bool) {
		spec, _ := j.Payload.(jobSpec)
		if spec.Poison {
			return nil, "poison", false
		}
		if j.Attempt <= spec.Fails {
			return nil, fmt.Sprintf("transient failure %d/%d", j.Attempt, spec.Fails), false
		}
		return fmt.Sprintf("done:%s by %d attempt %d", j.ID, s.id, j.Attempt), "", true
	}
	return r
}

// onQueueEvent runs inside the event loop after every applied queue
// command: it completes proposal waiters and, on terminal transitions,
// releases "run" RPCs blocked on the job.
func (s *server) onQueueEvent(ev jobq.Event, e rsm.Entry, _ amp.Time) {
	s.waiters.Complete(e.ID, func() jobq.Event { return ev })
	if ev.Kind != jobq.EvCompleted && ev.Kind != jobq.EvDeadLettered {
		return
	}
	s.finishJob(ev.Job)
	// A worker expiry can dead-letter released final-attempt jobs too.
	for _, id := range ev.Dead {
		s.finishJob(id)
	}
}

// finishJob releases every "run" waiter of a now-terminal job.
func (s *server) finishJob(id string) {
	chans, ok := s.jobWaiters[id]
	if !ok {
		return
	}
	delete(s.jobWaiters, id)
	j, have := s.nd.State().Job(id)
	if !have {
		return
	}
	for _, ch := range chans {
		select {
		case ch <- j:
		default:
		}
	}
}

// runTimeout bounds a full job lifetime (queueing + retries with
// backoff included).
const runTimeout = 60 * time.Second

// jobMap serializes a job record for the JSON front end.
func jobMap(j jobq.Job) map[string]any {
	m := map[string]any{
		"id":      j.ID,
		"state":   j.State.String(),
		"attempt": j.Attempt,
		"budget":  j.Budget,
		"effects": j.Effects,
	}
	if j.State == jobq.Assigned || j.State == jobq.Running {
		m["worker"] = j.Worker
	}
	if j.State == jobq.Completed {
		m["doneBy"] = j.DoneBy
		if j.Result != nil {
			m["result"] = j.Result
		}
	}
	if j.Err != "" {
		m["err"] = j.Err
	}
	return m
}

// specFromVal decodes a submit payload {"cost_ms":N,"fails":K,
// "poison":B,"budget":M} (all optional).
func specFromVal(v any) (jobSpec, int) {
	spec := jobSpec{}
	budget := 0
	m, _ := v.(map[string]any)
	num := func(k string) int {
		f, _ := m[k].(float64)
		return int(f)
	}
	if m != nil {
		spec.CostMS = num("cost_ms")
		spec.Fails = num("fails")
		spec.Poison, _ = m["poison"].(bool)
		budget = num("budget")
	}
	return spec, budget
}

// handle serves one client request, on its connection's clientrpc
// goroutine: it may block, and the connection's next request waits.
func (s *server) handle(req clientrpc.Request) clientrpc.Response {
	switch req.Op {
	case "submit", "run":
		if req.Key == "" {
			return clientrpc.Response{Err: "submit needs a job id in \"key\""}
		}
		spec, budget := specFromVal(req.Val)
		if budget <= 0 {
			budget = s.nd.Config().Retry.Budget
		}
		var runCh chan jobq.Job
		if req.Op == "run" {
			// Register the terminal waiter BEFORE proposing, or a fast
			// completion could slip between apply and registration.
			runCh = make(chan jobq.Job, 1)
			s.rep.RT.Do(func(amp.Context) {
				if j, ok := s.nd.State().Job(req.Key); ok && j.State.Terminal() {
					runCh <- j
					return
				}
				s.jobWaiters[req.Key] = append(s.jobWaiters[req.Key], runCh)
			})
		}
		// Placed here, through consensus, to the local apply (a duplicate's EvNop is fine).
		_, err := s.waiters.Submit(s.rep.RT, node.RPCTimeout, func() rbcast.MsgID { return s.nd.Submit(s.nd.Ctx(), req.Key, budget, spec) })
		if err == nil && req.Op == "submit" {
			return clientrpc.Response{OK: true, ID: req.Key}
		}
		if err == nil {
			select {
			case j := <-runCh:
				return clientrpc.Response{OK: true, ID: j.ID, Val: jobMap(j)}
			case <-time.After(s.runTimeout):
				err = fmt.Errorf("job %s not terminal after %s", req.Key, s.runTimeout)
			}
		}
		// finishJob sees neither of these exits: take the run's waiter back.
		s.rep.RT.Do(func(amp.Context) {
			rest := slices.DeleteFunc(s.jobWaiters[req.Key], func(c chan jobq.Job) bool { return c == runCh })
			if s.jobWaiters[req.Key] = rest; len(rest) == 0 {
				delete(s.jobWaiters, req.Key)
			}
		})
		return clientrpc.Response{Err: err.Error()}
	case "job":
		var resp clientrpc.Response
		s.rep.RT.Do(func(amp.Context) {
			if j, ok := s.nd.State().Job(req.Key); ok {
				resp = clientrpc.Response{OK: true, Val: jobMap(j)}
			} else {
				resp = clientrpc.Response{Err: fmt.Sprintf("unknown job %q", req.Key)}
			}
		})
		return resp
	case "jobs":
		all := map[string]any{}
		s.rep.RT.Do(func(amp.Context) {
			for _, j := range s.nd.State().Jobs() {
				all[j.ID] = jobMap(j)
			}
		})
		return clientrpc.Response{OK: true, Val: all, Applied: len(all)}
	case "stat":
		var n, earlyStarts, earlyDropped int
		var ctr jobq.Counters
		var workers []int
		s.rep.RT.Do(func(amp.Context) {
			n = s.nd.RSM.Len()
			ctr = s.nd.State().Counters()
			workers = s.nd.State().Workers()
			earlyStarts, earlyDropped = s.runner.EarlyCounts()
		})
		return clientrpc.Response{OK: true, Applied: n, Net: node.NetStats(s.rep), Journal: node.JournalStats(s.rep), Gauges: node.Gauges(s.rep), Val: map[string]any{
			"submitted":   ctr.Submitted,
			"assigns":     ctr.Assigns,
			"completions": ctr.Completions,
			"retries":     ctr.Retries,
			"expiries":    ctr.Expiries,
			"released":    ctr.Released,
			"deadLetters": ctr.DeadLetters,
			"stale":       ctr.Stale,
			"workers":     workers,
			// this node's runner's (jobq.Runner.EarlyCounts), not replicated
			"earlyStarts":  earlyStarts,
			"earlyDropped": earlyDropped,
		}}
	default:
		return clientrpc.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
