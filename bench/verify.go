package main

import (
	"fmt"
	"math/rand"
	"time"

	"distbasics/internal/agreement"
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/flp"
	"distbasics/internal/rsm"
	"distbasics/internal/shm"
)

// verify-fixed runs the four verifiers on fixed inputs, serially
// (Workers: 1), in rounds: one round is every verifier once (the
// simulator twice), which gives each about a quarter of the round on
// the sizing box. A round is this workload's operation; each
// verifier's own throughput is reported beside it. No daemon code runs
// here.
//
// The explorer counts are pinned: a reduction that prunes more or less
// than it did is a correctness miss, not a speed change.
const (
	pinnedSHMDPOR = 3472   // shm.Explore, CAS consensus, n=4, <=3 crashes, DPOR
	pinnedSHMFull = 58920  // the same without DPOR
	pinnedFLPDPOR = 39425  // flp.Explore, wait-majority, n=4, 1 crash, DPOR
	pinnedFLPFull = 118357 // the same without DPOR
)

// shmOpts is the CAS-consensus exploration for four proposers.
func shmOpts(dpor bool) shm.ExploreOpts {
	return shm.ExploreOpts{
		Factory: func() *shm.Run {
			cons := agreement.NewCASConsensus()
			bodies := make([]func(*shm.Proc) any, 4)
			for i := range bodies {
				v := i
				bodies[i] = func(p *shm.Proc) any { return cons.Propose(p, v) }
			}
			return &shm.Run{Bodies: bodies}
		},
		MaxCrashes: 3,
		Check: func(out *shm.Outcome) string {
			return agreement.CheckConsensusOutcome(out, []any{0, 1, 2, 3})
		},
		Workers: 1,
		DPOR:    dpor,
	}
}

func exploreSHM(dpor bool) (units int, miss string) {
	res := shm.Explore(shmOpts(dpor))
	want := pinnedSHMFull
	if dpor {
		want = pinnedSHMDPOR
	}
	switch {
	case res.Violation != "":
		miss = "shm.Explore reports a violation in CAS consensus: " + res.Violation
	case res.Truncated:
		miss = "shm.Explore was truncated"
	case res.Executions != want:
		miss = fmt.Sprintf("shm.Explore(dpor=%v) explored %d executions, pinned %d", dpor, res.Executions, want)
	}
	return res.Executions, miss
}

func exploreFLP(dpor bool) (units int, miss string) {
	rep := flp.Explore(flp.WaitMajority{Procs: 4}, []int{0, 1, 0, 1}, flp.Options{MaxCrashes: 1, Workers: 1, DPOR: dpor})
	want := pinnedFLPFull
	if dpor {
		want = pinnedFLPDPOR
	}
	switch {
	case rep.AgreementViolation != "":
		miss = "flp.Explore reports an agreement violation in wait-majority: " + rep.AgreementViolation
	case rep.Truncated:
		miss = "flp.Explore was truncated"
	case rep.Configs != want:
		miss = fmt.Sprintf("flp.Explore(dpor=%v) visited %d configs, pinned %d", dpor, rep.Configs, want)
	}
	return rep.Configs, miss
}

// Corpus shape for the linearizability checker.
const (
	corpusHistories = 512
	corpusOps       = 48
	corpusProcs     = 4
	corpusKeys      = 3
)

// corpusEntry is one history and the verdict the checker must reach.
type corpusEntry struct {
	h    check.History
	want bool
}

// genCorpus builds the seeded corpus: concurrent register-array
// histories made by a random scheduler that invokes, linearizes and
// returns operations of corpusProcs processes, so every history is
// linearizable by construction; every third one then has one read
// return a value nobody wrote, which makes it not linearizable.
func genCorpus(rng *rand.Rand) []corpusEntry {
	out := make([]corpusEntry, corpusHistories)
	for hi := range out {
		type pending struct {
			idx  int
			done bool // linearized, waiting to return
		}
		var h check.History
		state := map[int]any{}
		procs := make([]*pending, corpusProcs)
		var clock int64
		var reads []int
		for issued, returned := 0, 0; returned < corpusOps; {
			p := rng.Intn(corpusProcs)
			switch cur := procs[p]; {
			case cur == nil && issued < corpusOps:
				key := rng.Intn(corpusKeys)
				var op any = check.ReadOp{}
				if rng.Intn(2) == 0 {
					op = check.WriteOp{V: hi*1000 + issued}
				}
				clock++
				h = append(h, check.Op{Proc: p, Arg: check.KeyedOp{Key: key, Op: op}, Call: clock, Return: check.Pending})
				procs[p] = &pending{idx: len(h) - 1}
				issued++
			case cur != nil && !cur.done:
				ko := h[cur.idx].Arg.(check.KeyedOp)
				if w, ok := ko.Op.(check.WriteOp); ok {
					state[ko.Key.(int)] = w.V
				} else {
					h[cur.idx].Out = state[ko.Key.(int)]
					reads = append(reads, cur.idx)
				}
				cur.done = true
			case cur != nil:
				clock++
				h[cur.idx].Return = clock
				procs[p] = nil
				returned++
			}
		}
		want := true
		if hi%3 == 2 && len(reads) > 0 {
			h[reads[rng.Intn(len(reads))]].Out = -1 - hi
			want = false
		}
		out[hi] = corpusEntry{h: h, want: want}
	}
	return out
}

// checkCorpus runs the checker over the corpus; units are history
// operations checked, explored the checker's own work measure.
func checkCorpus(corpus []corpusEntry) (units, explored int, miss string) {
	for i, ce := range corpus {
		res, err := check.Linearizable(check.RegisterArraySpec{}, ce.h)
		if err != nil {
			return units, explored, fmt.Sprintf("check.Linearizable rejects corpus history %d: %v", i, err)
		}
		if res.OK != ce.want && miss == "" {
			miss = fmt.Sprintf("check.Linearizable says %v on corpus history %d, built to be %v", res.OK, i, ce.want)
		}
		units += len(ce.h)
		explored += res.Explored
	}
	return units, explored, miss
}

// simHorizon is the virtual time the replicated-state-machine scenario
// runs for: long enough that heartbeats, not the four commands,
// dominate the event count.
const simHorizon = 60_000

// simRSM is basicsbench's E10 scenario on amp.Sim: five rsm replicas,
// fixed delay 2, four commands submitted at three nodes, replica 4
// crashed at t=60; the surviving replicas must apply the same
// sequence. Units are simulator events.
func simRSM(seed int64) (events, msgs int, miss string) {
	const n = 5
	nodes := make([]*rsm.Node, n)
	procs := make([]amp.Process, n)
	for i := range nodes {
		nodes[i] = rsm.NewNode(n)
		procs[i] = nodes[i].Stack
	}
	sim := amp.NewSim(procs, amp.WithSeed(seed), amp.WithDelay(amp.FixedDelay{D: 2}))
	cmds := []rsm.Command{
		{Op: "put", Key: "a", Val: 1}, {Op: "put", Key: "b", Val: 2},
		{Op: "put", Key: "a", Val: 3}, {Op: "put", Key: "c", Val: 4},
	}
	for i, cmd := range cmds {
		nd := nodes[1+i%3]
		sim.Schedule(amp.Time(10+40*i), func() { nd.Submit(nd.Ctx(), cmd) })
	}
	sim.CrashAt(4, 60)
	events = sim.Run(simHorizon)
	ref := nodes[0].Applied()
	if len(ref) != len(cmds) {
		miss = fmt.Sprintf("amp.Sim rsm scenario: replica 0 applied %d of %d commands", len(ref), len(cmds))
	}
	for i := 1; i < n-1 && miss == ""; i++ {
		log := nodes[i].Applied()
		if len(log) != len(ref) {
			miss = fmt.Sprintf("amp.Sim rsm scenario: replica %d applied %d entries, replica 0 %d", i, len(log), len(ref))
			break
		}
		for j := range log {
			if log[j].ID != ref[j].ID {
				miss = fmt.Sprintf("amp.Sim rsm scenario: replicas 0 and %d disagree at position %d", i, j)
				break
			}
		}
	}
	return events, sim.MessagesSent(), miss
}

// verifier is one slice of a round.
type verifier struct {
	rate string // the metric its throughput is reported under
	reps int    // passes per round, sized so the four slices take about equal time
	pass func() (units int, miss string)
}

func runVerify(c *ctx) (*result, error) {
	r := newResult()
	// Set-up is building the corpus from the seed; repeated, median.
	var corpus []corpusEntry
	var setups []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		corpus = genCorpus(rand.New(rand.NewSource(c.seed)))
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	var explored, simMsgs int
	vs := []verifier{
		{"shm_exec_s", 1, func() (int, string) { return exploreSHM(true) }},
		{"flp_configs_s", 1, func() (int, string) { return exploreFLP(true) }},
		{"check_ops_s", 1, func() (u int, miss string) {
			u, explored, miss = checkCorpus(corpus)
			return u, miss
		}},
		{"sim_events_s", 2, func() (u int, miss string) {
			u, simMsgs, miss = simRSM(c.seed)
			return u, miss
		}},
	}
	// One untimed round warms allocator and caches.
	for _, v := range vs {
		v.pass()
	}
	// Every round does the same work. A verifier's rate comes from its
	// median time in a round, and the round's own median and p90 are
	// this workload's latencies, so a stall costs one round and not
	// the mean.
	units := make([]int, len(vs)) // of one round
	spent := make([][]float64, len(vs))
	var rounds hist
	for end := time.Now().Add(c.seconds); time.Now().Before(end); {
		t0 := time.Now()
		missed := false
		for i, v := range vs {
			t1 := time.Now()
			units[i] = 0
			for k := 0; k < v.reps; k++ {
				u, miss := v.pass()
				units[i] += u
				if miss != "" {
					missed = true
					if len(r.misses) == 0 {
						r.gate(false, "%s", miss)
					}
				}
			}
			spent[i] = append(spent[i], time.Since(t1).Seconds())
		}
		rounds.record(time.Since(t0))
		r.attempted++
		if missed {
			r.failed++
		}
	}
	r.set("fail_share", float64(r.failed)/float64(max(r.attempted, 1)))
	perRound := 0
	for i, v := range vs {
		r.set(v.rate, float64(units[i])/median(spent[i]))
		r.notef("%-14s %12.0f /s  (%d units a round, median %.1f ms)", v.rate, r.m[v.rate], units[i], 1e3*median(spent[i]))
		perRound += units[i]
	}
	// Generic names: the operation is one round, its work the units of
	// all four verifiers.
	r.set("ops_s", float64(perRound)/(rounds.quantile(0.5)/1e9))
	r.set("p50_us", rounds.us(0.5))
	r.set("p90_us", rounds.us(0.9))
	r.notef("round                  %s (%d units each)", &rounds, perRound)
	r.set("shm.dpor_executions", float64(units[0]/vs[0].reps))
	r.set("flp.dpor_configs", float64(units[1]/vs[1].reps))
	r.set("check.explored_per_op", float64(explored)/float64(corpusHistories*corpusOps))
	r.set("check.ns_per_op", 1e9/r.m["check_ops_s"])
	r.set("amp.sim.events", float64(units[3]/vs[3].reps))
	r.set("amp.sim.msgs", float64(simMsgs))
	r.set("amp.sim.ns_per_event", 1e9/r.m["sim_events_s"])
	return r, nil
}
