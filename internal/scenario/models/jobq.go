package models

import (
	"encoding/gob"
	"fmt"
	"reflect"

	"distbasics/internal/amp"
	"distbasics/internal/jobq"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/scenario"
)

// JobQ is the schedule-fuzz model for the distributed job queue
// (internal/jobq over internal/rsm): replicas double as workers,
// clients submit jobs with per-job costs, transient failure counts,
// and the occasional poison job, and the whole stack runs under
// partition / crash-recovery / drop schedules that always heal.
//
// The two headline oracles are the ones the tentpole promises:
//
//   - no-lost-jobs: every job ACCEPTED into the replicated state is
//     terminal by the end of the drained run — Completed, or Failed
//     with its retry budget exhausted (the dead-letter state). Faults
//     may delay a job through expiry, release, and reassignment, but
//     may never strand it.
//   - exactly-once completion: despite lease expirations, reassignment
//     races, re-executed attempts, and reappearing workers, no job
//     records more than one effect (Job.Effects ≤ 1, == 1 iff
//     Completed).
//
// Submissions go through jobq.Node.Submit, so several replicas and the
// scheduler hand out jobs concurrently; the cap oracle checks that no
// worker ever holds more than MaxPerWorker jobs at any replica.
//
// Plus the replication invariants underneath: pairwise prefix-equal
// apply orders, and replicas at equal apply points holding deeply
// equal queue states. Benign (even) seeds additionally require exact
// outcomes: a job with f transient failures completes on attempt f+1,
// poison jobs dead-letter at exactly their budget, nothing pends.
type JobQ struct{}

// Cluster shape: jqReplicas replicas, each also a worker; clients
// submit through replicas 0..jqClients-1. The budget is small so
// poison jobs park quickly; grace is a few suspicion timeouts so
// crash-recovery windows (≥ 50 ticks, often ≫ grace) actually expire
// workers and force reassignment.
const (
	jqReplicas = 4
	jqClients  = 3
	jqJobsPer  = 6
	jqBudget   = 3
	jqHorizon  = 150_000
	jqChunk    = 10_000 // boundWork is judged at every multiple
	jqFaultHz  = 20_000 // faults are drawn over this prefix and heal well before jqHorizon
	jqStep     = 40
	jqGrace    = 300
	jqCap      = 3 // MaxPerWorker
	// jqPerOp is boundWork's bound: seeds 1–120 apply at most 136
	// commands for 18 jobs (7.6 per job).
	jqPerOp = 24
)

// Name implements scenario.Model.
func (*JobQ) Name() string { return "jobq" }

// jqSpec packs a job's behavior into an op value: execution cost in
// ticks, transient failures before success, poison flag.
func jqSpec(cost, fails int, poison bool) int {
	v := cost + fails*100
	if poison {
		v += 10_000
	}
	return v
}

func jqSpecDecode(v int) (cost amp.Time, fails int, poison bool) {
	poison = v >= 10_000
	v %= 10_000
	return amp.Time(v % 100), (v / 100) % 100, poison
}

// Generate implements scenario.Model.
func (*JobQ) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	sc := &scenario.Scenario{Model: "jobq", Seed: seed, Procs: jqReplicas}
	for c := 0; c < jqClients; c++ {
		for k := 0; k < jqJobsPer; k++ {
			cost := 2 + rng.Intn(38)
			fails := 0
			if rng.Intn(3) == 0 {
				fails = 1 + rng.Intn(jqBudget-1) // transient: fails < budget, then succeeds
			}
			poison := rng.Intn(8) == 0
			sc.Ops = append(sc.Ops, scenario.Op{Proc: c, Kind: scenario.OpPut, Key: k, Val: jqSpec(cost, fails, poison)})
		}
	}
	if seed%2 == 1 {
		sc.Faults = genAmpFaults(rng, jqReplicas, jqFaultHz)
		sc.Faults = append(sc.Faults, genSnapCrash(rng, 500+rng.Int63n(jqFaultHz), rng.Intn(jqReplicas), 500, 3_000))
	}
	return sc
}

// Run implements scenario.Model.
func (*JobQ) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	jobq.RegisterWire(gob.Register) // jobq.Cmd rides in journaled batches and snapshots

	// Per-replica applied entry sequences for the order oracle,
	// captured by a construction-time apply hook (so a snapshot-crash
	// restart's recovery replay is observed too: applied[] is rewound
	// to the recovered snapshot's coverage and the replayed suffix
	// re-extends it through the same hook).
	applied := make([][]rbcast.MsgID, jqReplicas)
	nodes := make([]*jobq.Node, jqReplicas)
	js, ok := openJournals(res, jqReplicas)
	defer js.close()
	if !ok {
		return res
	}
	cfgs := make([]jobq.Config, jqReplicas)
	hook := func(j int) func(e rsm.Entry, at amp.Time) {
		return func(e rsm.Entry, _ amp.Time) { applied[j] = append(applied[j], e.ID) }
	}
	build := func(j int, rec *rsm.Recovery) *jobq.Node { // rec is nil on first boot
		nd := jobq.New(jqReplicas, cfgs[j], rsm.WithMaxBatch(8),
			rsm.WithJournal(js.cur(j)), rsm.WithApplyHook(hook(j)), rsm.WithRecovery(rec))
		nd.RSM.Omega.Period = 16
		// The cap oracle: the job records at every live apply point here.
		nd.Subscribe(func(ev jobq.Event, _ rsm.Entry, at amp.Time) {
			held := 0
			for _, job := range nd.State().Jobs() {
				if (job.State == jobq.Assigned || job.State == jobq.Running) && job.Worker == ev.Worker {
					held++
				}
			}
			if held > jqCap {
				res.Failf("cap violated at replica %d, t=%d: worker %d holds %d jobs after %s (MaxPerWorker %d)", j, at, ev.Worker, held, ev.Job, jqCap)
			}
		})
		return nd
	}
	procs := make([]amp.Process, jqReplicas)
	for j := 0; j < jqReplicas; j++ {
		cfgs[j] = jobq.Config{
			Grace:        jqGrace,
			StepEvery:    jqStep,
			MaxPerWorker: jqCap,
			Retry:        jobq.RetryPolicy{Base: 40, Cap: 400, Budget: jqBudget, Seed: cfg.Int63()},
		}
		nodes[j] = build(j, nil)
		procs[j] = nodes[j].RSM.Stack
	}
	sim := amp.NewSim(procs,
		amp.WithSeed(cfg.Int63()),
		amp.WithDelay(ampDelay(cfg)),
		amp.WithAdversary(ampAdversaries(sc.Faults)...))

	// Workers: one per replica. Work outcomes are a deterministic
	// function of (payload, attempt) so reassignment cannot change what
	// an attempt would have done — only which attempt lands. Deferred
	// work is a timer of the replica's process (amp.Sim.After).
	mkRunner := func(j int) *jobq.Runner {
		r := jobq.NewRunner(nodes[j], j)
		r.Defer = func(d amp.Time, f func()) { sim.After(j, d, f) }
		r.Cost = func(j jobq.Job) amp.Time {
			cost, _, _ := jqSpecDecode(j.Payload.(int))
			if cost < 1 {
				cost = 1
			}
			return cost
		}
		r.Work = func(job jobq.Job) (any, string, bool) {
			_, fails, poison := jqSpecDecode(job.Payload.(int))
			if poison {
				return nil, "poison", false
			}
			if job.Attempt <= fails {
				return nil, fmt.Sprintf("transient %d/%d", job.Attempt, fails), false
			}
			return "done:" + job.ID, "", true
		}
		return r
	}
	for j := 0; j < jqReplicas; j++ {
		sim.Schedule(amp.Time(2+j), mkRunner(j).Start)
	}

	// Snapshot-crash faults (simSnapCrashes): the new incarnation is a
	// fresh node with a fresh runner. The queue oracles below are
	// unchanged — a restart may delay jobs, never strand or
	// double-complete them.
	simSnapCrashes(sim, sc, res, js, applied, func(p int) *rsm.Node { return nodes[p].RSM },
		func(p int, rec *rsm.Recovery, base int) {
			nodes[p] = build(p, rec)
			sim.Replace(p, nodes[p].RSM.Stack)
			mkRunner(p).Start()
			res.Tracef("snaprestart p%d base=%d", p, base)
		})

	// Fallback pulse on every replica (the healthy path schedules on
	// apply); only the Ω leader acts. Crashed replicas skip theirs.
	for j := 0; j < jqReplicas; j++ {
		j := j
		var pulse func()
		pulse = func() {
			if sim.Now() >= jqHorizon {
				return
			}
			if !sim.Crashed(j) {
				nodes[j].Step(nodes[j].Ctx())
			}
			sim.Schedule(sim.Now()+jqStep, pulse)
		}
		sim.Schedule(amp.Time(10+j), pulse)
	}

	// Clients: submit each job with bounded idempotent retries (the job
	// ID dedups), from the client's own replica, skipping submission
	// while it is crashed.
	type sub struct {
		id   string
		spec int
		proc int
	}
	var subs []sub
	for c := 0; c < jqClients; c++ {
		for i, op := range sc.OpsFor(c) {
			subs = append(subs, sub{id: fmt.Sprintf("j%d-%d", c, i), spec: op.Val, proc: c})
		}
	}
	think := scenario.NewRand(sc.Seed).Derive(300)
	for i, s := range subs {
		s := s
		tries := 0
		var submit func()
		submit = func() {
			if tries >= 20 {
				return
			}
			tries++
			if !sim.Crashed(s.proc) {
				if _, ok := nodes[s.proc].State().Job(s.id); ok {
					return // accepted: stop retrying
				}
				nodes[s.proc].Submit(nodes[s.proc].Ctx(), s.id, jqBudget, s.spec)
			}
			sim.Schedule(sim.Now()+2500, submit)
		}
		sim.Schedule(amp.Time(100+i*120+int(think.Int63n(90))), submit)
	}

	ampProcFaults(sim, sc.Faults)
	// Judge bounded work at every chunk boundary, as the rsm model does:
	// a runaway stops at the first chunk over the bound.
	for until := amp.Time(jqChunk); until <= jqHorizon; until += jqChunk {
		sim.Run(until)
		if boundWork(res, jqPerOp, len(subs), jqReplicas, func(p int) int { return nodes[p].RSM.Len() }); res.Failed {
			break
		}
	}

	// Reference replica: the most advanced apply point.
	ref := 0
	for j := 1; j < jqReplicas; j++ {
		if len(applied[j]) > len(applied[ref]) {
			ref = j
		}
	}
	st := nodes[ref].State()

	// Replication oracles: prefix-equal orders; equal apply points ⇒
	// deeply equal queue states.
	for a := 0; a < jqReplicas; a++ {
		for b := a + 1; b < jqReplicas; b++ {
			if i := divergence(applied[a], applied[b], 0, 0); i >= 0 {
				res.Failf("order divergence at entry %d: replica %d %v, replica %d %v",
					i, a, applied[a][i], b, applied[b][i])
				return res
			}
			if len(applied[a]) == len(applied[b]) &&
				!reflect.DeepEqual(nodes[a].State().Jobs(), nodes[b].State().Jobs()) {
				res.Failf("replicas %d and %d at equal apply point %d disagree on queue state", a, b, len(applied[a]))
				return res
			}
		}
	}

	// Queue oracles on the reference state.
	jobs := st.Jobs()
	ctr := st.Counters()
	completed, failed, effects := 0, 0, 0
	for _, j := range jobs {
		effects += j.Effects
		if j.Effects > 1 {
			res.Failf("job %s completed %d times (exactly-once violated)", j.ID, j.Effects)
		}
		if j.Attempt > j.Budget {
			res.Failf("job %s ran %d attempts on a budget of %d", j.ID, j.Attempt, j.Budget)
		}
		switch j.State {
		case jobq.Completed:
			completed++
			if j.Effects != 1 || j.DoneBy < 0 {
				res.Failf("job %s is Completed with effects=%d doneBy=%d", j.ID, j.Effects, j.DoneBy)
			}
		case jobq.Failed:
			failed++
			if j.Effects != 0 {
				res.Failf("dead-lettered job %s has %d effects", j.ID, j.Effects)
			}
			if j.Attempt != j.Budget {
				res.Failf("dead-lettered job %s parked at attempt %d of budget %d", j.ID, j.Attempt, j.Budget)
			}
		default:
			// no-lost-jobs: faults all heal long before the horizon, so an
			// accepted job still in flight at the end was stranded.
			res.Failf("no-lost-jobs violated: job %s ended %s (worker %d, attempt %d/%d)",
				j.ID, j.State, j.Worker, j.Attempt, j.Budget)
		}
	}
	if ctr.Completions != completed || ctr.DeadLetters != failed || effects != ctr.Completions {
		res.Failf("counter drift: completions=%d (#completed=%d) deadletters=%d (#failed=%d) effects=%d",
			ctr.Completions, completed, ctr.DeadLetters, failed, effects)
	}
	res.Completed = completed + failed
	res.Pending = len(subs) - res.Completed

	for j := 0; j < jqReplicas; j++ {
		res.Tracef("replica %d applied %d", j, len(applied[j]))
	}
	res.Tracef("jobs=%d completed=%d deadlettered=%d assigns=%d retries=%d expiries=%d released=%d stale=%d",
		len(jobs), completed, failed, ctr.Assigns, ctr.Retries, ctr.Expiries, ctr.Released, ctr.Stale)

	if len(sc.Faults) == 0 {
		// Benign run: every submission is accepted and outcomes are exact.
		if len(jobs) != len(subs) {
			res.Failf("benign run accepted %d of %d submissions", len(jobs), len(subs))
			return res
		}
		if ctr.Expiries != 0 {
			res.Failf("benign run expired %d workers", ctr.Expiries)
			return res
		}
		byID := make(map[string]jobq.Job, len(jobs))
		for _, j := range jobs {
			byID[j.ID] = j
		}
		for _, s := range subs {
			j := byID[s.id]
			_, fails, poison := jqSpecDecode(s.spec)
			switch {
			case poison && j.State != jobq.Failed:
				res.Failf("poison job %s ended %s, want dead-letter", s.id, j.State)
			case !poison && j.State != jobq.Completed:
				res.Failf("job %s ended %s, want completed", s.id, j.State)
			case !poison && j.Attempt != fails+1:
				res.Failf("job %s completed on attempt %d, want %d", s.id, j.Attempt, fails+1)
			}
		}
	}
	return res
}
