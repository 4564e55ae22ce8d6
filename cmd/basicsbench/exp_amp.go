package main

// Experiments E8–E16: the asynchronous message-passing world (§5) —
// broadcast, register emulation, universality, randomized and indulgent
// consensus, failure detectors, process adversaries, and FLP.

import (
	"fmt"
	"time"

	"distbasics/internal/abd"
	"distbasics/internal/amp"
	"distbasics/internal/fd"
	"distbasics/internal/flp"
	"distbasics/internal/mpcons"
	"distbasics/internal/procadv"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
)

// bcastHarness hosts one broadcast component per process and records
// deliveries.
type bcastHarness struct {
	sim       *amp.Sim
	stacks    []*amp.Stack
	delivered [][]rbcast.MsgID
}

func newBcastHarness(n int, mk func(i int, d rbcast.Deliver) amp.Component, opts ...amp.SimOption) *bcastHarness {
	h := &bcastHarness{delivered: make([][]rbcast.MsgID, n)}
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		i := i
		d := func(id rbcast.MsgID, _ any) {
			h.delivered[i] = append(h.delivered[i], id)
		}
		st := amp.NewStack(mk(i, d))
		h.stacks = append(h.stacks, st)
		procs[i] = st
	}
	h.sim = amp.NewSim(procs, opts...)
	return h
}

// runE8 sweeps the broadcaster's crash point over every send prefix:
// reliable broadcast gives all-or-none among correct processes at every
// prefix; best-effort does not.
func runE8() []row {
	const n = 7
	allOrNone := func(mk func(i int, d rbcast.Deliver) amp.Component) (okAll bool, violations int) {
		okAll = true
		for prefix := 0; prefix <= n; prefix++ {
			h := newBcastHarness(n, mk)
			h.sim.CrashAfterSends(0, prefix)
			h.sim.Schedule(1, func() {
				switch c := h.stacks[0].Component(0).(type) {
				case *rbcast.Reliable:
					c.Broadcast(h.stacks[0].Ctx(0), "m")
				case *rbcast.BestEffort:
					c.Broadcast(h.stacks[0].Ctx(0), "m")
				case *rbcast.Uniform:
					c.Broadcast(h.stacks[0].Ctx(0), "m")
				}
			})
			h.sim.Run(0)
			got := 0
			for i := 1; i < n; i++ {
				if len(h.delivered[i]) > 0 {
					got++
				}
			}
			if got != 0 && got != n-1 {
				okAll = false
				violations++
			}
		}
		return okAll, violations
	}

	okRel, _ := allOrNone(func(_ int, d rbcast.Deliver) amp.Component { return rbcast.NewReliable(d) })
	okUni, _ := allOrNone(func(_ int, d rbcast.Deliver) amp.Component { return rbcast.NewUniform(n, d) })
	okBE, vioBE := allOrNone(func(_ int, d rbcast.Deliver) amp.Component { return rbcast.NewBestEffort(d) })

	return []row{
		{
			claim:    "reliable broadcast: all-or-none among correct, any crash prefix (§5.1, [30])",
			measured: fmt.Sprintf("crash after k=0..%d sends: all-or-none always: %v", n, okRel),
			ok:       okRel,
		},
		{
			claim:    "uniform reliable broadcast keeps the same guarantee via majority acks",
			measured: fmt.Sprintf("crash sweep: all-or-none always: %v", okUni),
			ok:       okUni,
		},
		{
			claim:    "best-effort broadcast is NOT reliable (the motivating non-example)",
			measured: fmt.Sprintf("crash sweep: %d prefixes deliver to a strict non-empty subset (violation expected): %v", vioBE, !okBE),
			ok:       !okBE,
		},
	}
}

// runE9 measures the ABD latencies in Δ units and demonstrates that
// t < n/2 is necessary: a half/half partition blocks every operation.
func runE9() []row {
	const n, delta = 5, 10

	newCluster := func(size int, fast bool, opts ...amp.SimOption) (*amp.Sim, []*abd.Register, []*amp.Stack) {
		regs := make([]*abd.Register, size)
		stacks := make([]*amp.Stack, size)
		procs := make([]amp.Process, size)
		for i := 0; i < size; i++ {
			r := abd.NewRegister(size, 0)
			r.FastRead = fast
			regs[i] = r
			stacks[i] = amp.NewStack(r)
			procs[i] = stacks[i]
		}
		return amp.NewSim(procs, append(opts, amp.WithDelay(amp.FixedDelay{D: delta}))...), regs, stacks
	}

	// Write latency.
	sim, regs, stacks := newCluster(n, false)
	var wLat amp.Time = -1
	sim.Schedule(1, func() { regs[0].Write(stacks[0].Ctx(0), "v", func(l amp.Time) { wLat = l }) })
	sim.Run(0)

	// Classic read latency.
	sim2, regs2, stacks2 := newCluster(n, false)
	var rLat amp.Time = -1
	sim2.Schedule(1, func() { regs2[0].Write(stacks2[0].Ctx(0), "v", nil) })
	sim2.Schedule(1000, func() { regs2[3].Read(stacks2[3].Ctx(0), func(_ any, l amp.Time) { rLat = l }) })
	sim2.Run(0)

	// Fast read, good circumstances (no concurrent write).
	sim3, regs3, stacks3 := newCluster(n, true)
	var fLat amp.Time = -1
	sim3.Schedule(1, func() { regs3[0].Write(stacks3[0].Ctx(0), "v", nil) })
	sim3.Schedule(1000, func() { regs3[2].Read(stacks3[2].Ctx(0), func(_ any, l amp.Time) { fLat = l }) })
	sim3.Run(0)

	// Liveness loss at t >= n/2: a 2/2 partition of a 4-process system
	// (majority quorums of size 3 are unreachable).
	sim4, regs4, stacks4 := newCluster(4, false,
		amp.WithAdversary(amp.AdversaryFunc(func(src, dst int, _ amp.Time) amp.Verdict {
			return amp.Verdict{Drop: (src < 2) != (dst < 2)} // cut the network in halves
		})))
	readDone := false
	sim4.Schedule(1, func() { regs4[0].Read(stacks4[0].Ctx(0), func(_ any, _ amp.Time) { readDone = true }) })
	sim4.Run(1_000_000)

	// Partition-with-heal scenario (Adversary interface): a minority island
	// cannot reach a quorum, so an operation started inside the window
	// blocks; ABD has no retransmission, so it stays blocked after the heal,
	// but a fresh operation then completes with the pre-partition value.
	sim5, regs5, stacks5 := newCluster(n, false, amp.WithAdversary(amp.Partition(100, 5000, []int{3, 4})))
	blockedDone, healedVal := false, any(nil)
	var healedLat amp.Time = -1
	sim5.Schedule(1, func() { regs5[0].Write(stacks5[0].Ctx(0), "pre", nil) })
	sim5.Schedule(200, func() { regs5[3].Read(stacks5[3].Ctx(0), func(any, amp.Time) { blockedDone = true }) })
	sim5.Schedule(6000, func() {
		regs5[3].Read(stacks5[3].Ctx(0), func(v any, l amp.Time) { healedVal, healedLat = v, l })
	})
	sim5.Run(1_000_000)
	healOK := !blockedDone && healedVal == "pre" && healedLat == 4*delta

	// Scale: the calendar-queue engine runs ABD at n in the thousands. The
	// Δ-denominated latencies must be size-independent; the row also
	// reports the event-processing throughput at that size.
	const big = 2048
	simB, regsB, stacksB := newCluster(big, false)
	var bigW, bigR amp.Time = -1, -1
	ops := 0
	var chain func()
	chain = func() {
		if ops >= 8 {
			return
		}
		ops++
		regsB[0].Write(stacksB[0].Ctx(0), ops, func(l amp.Time) {
			bigW = l
			regsB[1+ops%big].Read(stacksB[1+ops%big].Ctx(0), func(_ any, l amp.Time) {
				bigR = l
				chain()
			})
		})
	}
	simB.Schedule(1, chain)
	start := time.Now()
	events := simB.Run(0)
	wall := time.Since(start)
	scaleOK := bigW == 2*delta && bigR == 4*delta

	return []row{
		{
			claim:    "ABD write completes in 2Δ (§5.1, [4])",
			measured: fmt.Sprintf("write latency = %dΔ", wLat/delta),
			ok:       wLat == 2*delta,
		},
		{
			claim:    "ABD read completes in 4Δ (query + mandatory write-back)",
			measured: fmt.Sprintf("read latency = %dΔ", rLat/delta),
			ok:       rLat == 4*delta,
		},
		{
			claim:    "fast read completes in 2Δ in good circumstances (§5.1, [49])",
			measured: fmt.Sprintf("uncontended fast read latency = %dΔ", fLat/delta),
			ok:       fLat == 2*delta,
		},
		{
			claim:    "t < n/2 is necessary: with half the system unreachable, reads block ([4])",
			measured: fmt.Sprintf("n=4 split 2/2: read completed = %v (expected false)", readDone),
			ok:       !readDone,
		},
		{
			claim:    "partition+heal: minority ops block (no retransmission), post-heal ops serve the latest value",
			measured: fmt.Sprintf("island {3,4} cut [100,5000): in-window read done=%v; post-heal read = %q in %dΔ", blockedDone, healedVal, healedLat/delta),
			ok:       healOK,
		},
		{
			claim:    "the simulator scales ABD to n >= 2048 with size-independent Δ latencies",
			measured: fmt.Sprintf("n=%d: 8 write+read pairs, write=%dΔ read=%dΔ, %d events in %v", big, bigW/delta, bigR/delta, events, wall.Round(time.Millisecond)),
			ok:       scaleOK,
		},
	}
}

// runE10 replicates a KV store at n=5 with one crash and verifies
// identical applied sequences (mutual consistency) at all survivors.
func runE10() []row {
	const n = 5
	nodes := make([]*rsm.Node, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		nodes[i] = rsm.NewNode(n)
		procs[i] = nodes[i].Stack
	}
	sim := amp.NewSim(procs, amp.WithSeed(5), amp.WithDelay(amp.FixedDelay{D: 2}))
	cmds := []rsm.Command{
		{Op: "put", Key: "a", Val: 1},
		{Op: "put", Key: "b", Val: 2},
		{Op: "put", Key: "a", Val: 3},
		{Op: "put", Key: "c", Val: 4},
	}
	for i, c := range cmds {
		i, c := i, c
		sim.Schedule(amp.Time(10+40*i), func() {
			nd := nodes[1+i%3]
			nd.Submit(nd.Ctx(), c)
		})
	}
	sim.CrashAt(4, 60)
	sim.Run(500_000)

	consistent := true
	ref := nodes[0].Applied()
	for i := 1; i < n-1; i++ {
		log := nodes[i].Applied()
		if len(log) != len(ref) {
			consistent = false
			continue
		}
		for j := range log {
			if log[j].ID != ref[j].ID {
				consistent = false
			}
		}
	}
	applied := len(ref)

	// Scale: the same replicated machine at n=1024. The failure detector's
	// heartbeat period is stretched so the all-to-all ALIVE storms (n² per
	// period) leave room for the command traffic; two commands must reach
	// every replica in the same order. This is the pooled calendar queue at
	// work: roughly n²-sized delivery batches per tick, reused event
	// records throughout.
	const big = 1024
	nodesB := make([]*rsm.Node, big)
	procsB := make([]amp.Process, big)
	for i := 0; i < big; i++ {
		nodesB[i] = rsm.NewNode(big)
		nodesB[i].Omega.Period = 32
		procsB[i] = nodesB[i].Stack
	}
	simB := amp.NewSim(procsB, amp.WithDelay(amp.FixedDelay{D: 1}))
	simB.Schedule(1, func() {
		nodesB[1].Submit(nodesB[1].Ctx(), rsm.Command{Op: "put", Key: "x", Val: 1})
	})
	simB.Schedule(3, func() {
		nodesB[2].Submit(nodesB[2].Ctx(), rsm.Command{Op: "put", Key: "y", Val: 2})
	})
	start := time.Now()
	events := simB.Run(150)
	wall := time.Since(start)
	scaleOK := true
	refB := nodesB[0].Applied()
	for i := 1; i < big && scaleOK; i++ {
		log := nodesB[i].Applied()
		if len(log) != len(refB) {
			scaleOK = false
			break
		}
		for j := range log {
			if log[j].ID != refB[j].ID {
				scaleOK = false
			}
		}
	}
	scaleOK = scaleOK && len(refB) == 2

	return []row{
		{
			claim:    "TO-broadcast sequences operations identically at every replica (§5.1, [41])",
			measured: fmt.Sprintf("n=%d, 1 crash: %d/%d commands applied in identical order at all survivors: %v", n, applied, len(cmds), consistent && applied == len(cmds)),
			ok:       consistent && applied == len(cmds),
		},
		{
			claim:    "the replicated state machine runs at n=1024 replicas, identical order everywhere",
			measured: fmt.Sprintf("n=%d: %d/2 commands applied at all replicas, %d events in %v", big, len(refB), events, wall.Round(time.Millisecond)),
			ok:       scaleOK,
		},
	}
}

// runE11 runs Ben-Or across sizes and seeds: every run terminates, and
// the expected round count is finite (and grows with n).
func runE11() []row {
	meanRounds := func(n int, seeds int) (float64, bool) {
		totalRounds, okAll := 0, true
		for seed := int64(0); seed < int64(seeds); seed++ {
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i % 2
			}
			decs := make([]bool, n)
			bos := make([]*mpcons.BenOr, n)
			procs := make([]amp.Process, n)
			for i := 0; i < n; i++ {
				i := i
				bos[i] = mpcons.NewBenOr(inputs[i], func(any, amp.Time) { decs[i] = true })
				procs[i] = amp.NewStack(bos[i])
			}
			sim := amp.NewSim(procs, amp.WithSeed(seed), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 10}))
			sim.CrashAt(n-1, 25)
			sim.Run(3_000_000)
			worst := 0
			for i := 0; i < n-1; i++ {
				if !decs[i] {
					okAll = false
				}
				if r := bos[i].Rounds(); r > worst {
					worst = r
				}
			}
			totalRounds += worst
		}
		return float64(totalRounds) / float64(seeds), okAll
	}

	m3, ok3 := meanRounds(3, 25)
	m9, ok9 := meanRounds(9, 25)

	return []row{
		{
			claim:    "Ben-Or terminates with probability 1 despite asynchrony + crash (§5.3, [6])",
			measured: fmt.Sprintf("n=3: 25/25 runs decide (mean %.1f rounds); n=9: 25/25 decide (mean %.1f rounds): %v", m3, m9, ok3 && ok9),
			ok:       ok3 && ok9,
		},
	}
}

// runE12 implements Ω under partial synchrony: after GST plus detector
// lag, every correct process's leader is the same correct process —
// even after the incumbent leader crashes.
func runE12() []row {
	const n = 5
	dets := make([]*fd.Detector, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		dets[i] = fd.NewDetector(n)
		procs[i] = amp.NewStack(dets[i])
	}
	const gst = 500
	sim := amp.NewSim(procs, amp.WithSeed(3), amp.WithDelay(amp.GSTDelay{
		GST: gst, BeforeMin: 1, BeforeMax: 90, AfterMin: 1, AfterMax: 4,
	}))
	sim.CrashAt(0, 700) // leader crashes after stabilizing once
	sim.Run(30_000)

	leaders := map[int]bool{}
	var worstTau amp.Time
	for i := 1; i < n; i++ {
		tau, leader := dets[i].StabilizationTime()
		leaders[leader] = true
		if tau > worstTau {
			worstTau = tau
		}
	}
	_, finalLeader := dets[1].StabilizationTime()
	okOne := len(leaders) == 1 && finalLeader != 0 && !sim.Crashed(finalLeader)

	return []row{
		{
			claim:    "Ω gives eventual leadership: ∃τ after which all correct leaders agree on a correct process (§5.3, [14])",
			measured: fmt.Sprintf("GST=%d, leader crash at 700: all correct procs converged on p%d by τ=%d: %v", gst, finalLeader+1, worstTau, okOne),
			ok:       okOne,
		},
	}
}

// runE13 sweeps the GST and shows indulgence: agreement and validity
// hold in every run, and decisions arrive shortly after stabilization.
func runE13() []row {
	okSafety := true
	type pt struct {
		gst     amp.Time
		decided amp.Time
	}
	var pts []pt
	for _, gst := range []amp.Time{100, 400, 1600} {
		for seed := int64(0); seed < 8; seed++ {
			const n = 4
			inputs := []any{10, 20, 30, 40}
			decs := make([]any, n)
			var latest amp.Time
			procs := make([]amp.Process, n)
			for i := 0; i < n; i++ {
				i := i
				det := fd.NewDetector(n)
				syn := mpcons.NewSynod(inputs[i], det, func(v any, at amp.Time) {
					decs[i] = v
					if at > latest {
						latest = at
					}
				})
				procs[i] = amp.NewStack(det, syn)
			}
			sim := amp.NewSim(procs, amp.WithSeed(seed), amp.WithDelay(amp.GSTDelay{
				GST: gst, BeforeMin: 1, BeforeMax: 150, AfterMin: 1, AfterMax: 4,
			}))
			sim.Run(400_000)

			var common any
			for i := 0; i < n; i++ {
				if decs[i] == nil {
					okSafety = false
					continue
				}
				if common == nil {
					common = decs[i]
				} else if common != decs[i] {
					okSafety = false
				}
			}
			valid := false
			for _, in := range inputs {
				if in == common {
					valid = true
				}
			}
			if !valid {
				okSafety = false
			}
			if seed == 0 {
				pts = append(pts, pt{gst: gst, decided: latest})
			}
		}
	}
	detail := ""
	for _, p := range pts {
		detail += fmt.Sprintf(" GST=%d→decided t=%d;", p.gst, p.decided)
	}
	return []row{
		{
			claim:    "indulgent consensus: safety in every run, decision follows Ω's stabilization (§5.3, [28,29])",
			measured: fmt.Sprintf("24 runs, 3 GSTs: agreement+validity always: %v;%s", okSafety, detail),
			ok:       okSafety,
		},
	}
}

// runE14 feeds condition-based consensus legal and illegal input
// vectors: legal ones decide, illegal ones stay safe (and here, stall).
func runE14() []row {
	run := func(inputs []int) (decided int, agree bool) {
		n := len(inputs)
		decs := make([]any, n)
		procs := make([]amp.Process, n)
		for i := 0; i < n; i++ {
			i := i
			cc := mpcons.NewCondition(inputs[i], func(v any, _ amp.Time) { decs[i] = v })
			procs[i] = amp.NewStack(cc)
		}
		sim := amp.NewSim(procs, amp.WithSeed(7), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 9}))
		sim.Run(500_000)
		agree = true
		var common any
		for i := 0; i < n; i++ {
			if decs[i] == nil {
				continue
			}
			decided++
			if common == nil {
				common = decs[i]
			} else if common != decs[i] {
				agree = false
			}
		}
		return decided, agree
	}

	n := 5
	t := (n - 1) / 2
	legal := []int{7, 7, 7, 7, 7}   // max appears 5 > 2t = 4
	illegal := []int{7, 7, 3, 3, 1} // max appears 2 ≤ 2t
	legalOK := mpcons.SatisfiesCondition(legal, t)
	illegalOK := !mpcons.SatisfiesCondition(illegal, t)

	dLegal, aLegal := run(legal)
	dIllegal, aIllegal := run(illegal)

	return []row{
		{
			claim:    "inputs ∈ C (max > 2t occurrences): every correct process decides (§5.3, [48])",
			measured: fmt.Sprintf("legal vector: %d/%d decided, agreement: %v", dLegal, n, aLegal),
			ok:       legalOK && dLegal == n && aLegal,
		},
		{
			claim:    "inputs ∉ C: safety holds; termination not owed (and here does not occur)",
			measured: fmt.Sprintf("illegal vector: %d/%d decided (stall expected), agreement among deciders: %v", dIllegal, n, aIllegal),
			ok:       illegalOK && dIllegal == 0 && aIllegal,
		},
	}
}

// runE15 reruns the paper's §5.4 example adversary over every
// crash-at-start pattern: the gather harness terminates exactly when
// the live set contains a member of A.
func runE15() []row {
	adv := procadv.PaperExample()
	n := adv.N()
	matches, cases := 0, 0
	for live := procadv.Set(1); live <= procadv.FullSet(n); live++ {
		gs := make([]*procadv.Gatherer, n)
		procs := make([]amp.Process, n)
		for i := 0; i < n; i++ {
			gs[i] = procadv.NewGatherer(adv, i, nil)
			procs[i] = gs[i]
		}
		sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 1}))
		for i := 0; i < n; i++ {
			if !live.Contains(i) {
				sim.CrashAfterSends(i, 0)
			}
		}
		sim.Run(100_000)

		want := false
		for _, s := range adv.LiveSets() {
			if s.SubsetOf(live) {
				want = true
			}
		}
		allMatch := true
		for i := 0; i < n; i++ {
			if live.Contains(i) && gs[i].Done() != want {
				allMatch = false
			}
		}
		cases++
		if allMatch {
			matches++
		}
	}

	// Core/survivor duality on the paper's second example.
	cores := []procadv.Set{procadv.MakeSet(0, 1), procadv.MakeSet(2, 3)}
	surv := procadv.SurvivorsFromCores(4, cores)
	back := procadv.CoresFromSurvivors(4, surv)
	dualOK := len(surv) == 4 && len(back) == len(cores)

	return []row{
		{
			claim:    "A-resilient algorithm terminates exactly when live set ∈ (closure of) A (§5.4, [19,37])",
			measured: fmt.Sprintf("all %d crash patterns: prediction matched in %d/%d", cases, matches, cases),
			ok:       matches == cases,
		},
		{
			claim:    "cores {p1,p2},{p3,p4} ↔ survivor sets {p1,p3},{p1,p4},{p2,p3},{p2,p4} (duality)",
			measured: fmt.Sprintf("transversal conversion: %d survivor sets, round-trip returns the cores: %v", len(surv), dualOK),
			ok:       dualOK,
		},
	}
}

// runE16 makes FLP concrete: bivalent initial configurations exist, and
// each deterministic candidate loses termination or agreement under one
// crash.
func runE16() []row {
	vals := flp.InitialValences(flp.WaitMajority{Procs: 3}, flp.Options{MaxCrashes: 1})
	bivalent := 0
	for _, v := range vals {
		if v == flp.Bivalent {
			bivalent++
		}
	}

	repAll := flp.Explore(flp.WaitAll{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1})
	repMaj := flp.Explore(flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1})

	return []row{
		{
			claim:    "bivalent initial configurations exist (FLP Lemma 2; §2.4, [23])",
			measured: fmt.Sprintf("wait-majority n=3: %d/8 input vectors bivalent, 000 is 0-valent (%v), 111 is 1-valent (%v)", bivalent, vals["000"], vals["111"]),
			ok:       bivalent > 0 && vals["000"] == flp.ZeroValent && vals["111"] == flp.OneValent,
		},
		{
			claim:    "wait-for-all keeps agreement but loses termination under 1 crash",
			measured: fmt.Sprintf("exhaustive (%d configs): termination violation found: %v, agreement violation: %v", repAll.Configs, repAll.TerminationViolation != "", repAll.AgreementViolation != ""),
			ok:       repAll.TerminationViolation != "" && repAll.AgreementViolation == "",
		},
		{
			claim:    "wait-for-majority keeps termination but loses agreement — no protocol keeps both",
			measured: fmt.Sprintf("exhaustive (%d configs): agreement violation found: %v", repMaj.Configs, repMaj.AgreementViolation != ""),
			ok:       repMaj.AgreementViolation != "",
		},
		waitMajorityN4DPORRow(),
	}
}

// waitMajorityN4DPORRow times the wait-majority n=4 search with and
// without DPOR (Options.DPOR): the reduction is what makes n=4
// exhaustible, and the row shows the config counts and wall times.
func waitMajorityN4DPORRow() row {
	inputs := []int{0, 1, 0, 1}
	fullStart := time.Now()
	full := flp.Explore(flp.WaitMajority{Procs: 4}, inputs, flp.Options{MaxCrashes: 1})
	fullNS := time.Since(fullStart)
	dporStart := time.Now()
	dpor := flp.Explore(flp.WaitMajority{Procs: 4}, inputs, flp.Options{MaxCrashes: 1, DPOR: true})
	dporNS := time.Since(dporStart)
	ok := !full.Truncated && !dpor.Truncated &&
		dpor.Configs < full.Configs &&
		(full.AgreementViolation != "") == (dpor.AgreementViolation != "") &&
		(full.TerminationViolation != "") == (dpor.TerminationViolation != "")
	return row{
		claim:    "DPOR prunes commuting deliveries: wait-majority n=4 w/ 1 crash exhausted at a fraction of the full search",
		measured: fmt.Sprintf("full %d configs in %v; DPOR %d configs in %v (%.1fx fewer): violations agree: %v", full.Configs, fullNS.Round(time.Millisecond), dpor.Configs, dporNS.Round(time.Millisecond), float64(full.Configs)/float64(dpor.Configs), ok),
		ok:       ok,
	}
}
