package main

// Experiments E0–E3: the task framework (§2) and the synchronous world
// (§3) — locality and message adversaries.

import (
	"fmt"

	"distbasics/internal/amp"
	"distbasics/internal/central"
	"distbasics/internal/core"
	"distbasics/internal/dynnet"
	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/madv"
	"distbasics/internal/round"
)

// runE0 checks Figure 1's correspondence: with n = 1 a task is a
// sequential function; with n > 1 validity is a relation over vectors.
func runE0() []row {
	square := core.FunctionTask("square", 1, func(in []any) any { return in[0].(int) * in[0].(int) })
	okSeq := true
	for x := -10; x <= 10; x++ {
		if !square.Check(core.Vector(x), core.Vector(x*x)).OK {
			okSeq = false
		}
		if square.Check(core.Vector(x), core.Vector(x*x+1)).OK {
			okSeq = false
		}
	}

	cons := core.ConsensusTask(4)
	okDist := cons.Check(core.Vector(1, 2, 3, 4), core.Vector(3, 3, core.NoOutput, 3)).OK &&
		!cons.Check(core.Vector(1, 2, 3, 4), core.Vector(3, 4, 3, 3)).OK

	// §2.4: reliable system ⇒ any task solvable centrally; one crash ⇒
	// the same protocol blocks.
	sumFn := func(inputs []any) []any {
		s := 0
		for _, v := range inputs {
			s += v.(int)
		}
		outs := make([]any, len(inputs))
		for i := range outs {
			outs[i] = s
		}
		return outs
	}
	inputs := core.Vector(3, 1, 4, 1, 5)
	procs, nodes := central.Cluster(inputs, sumFn, nil)
	sim := amp.NewSim(procs, amp.WithDelay(amp.UniformDelay{Min: 1, Max: 7}))
	sim.Run(0)
	okCentral := true
	for _, nd := range nodes {
		if v, ok := nd.Output(); !ok || v != 14 {
			okCentral = false
		}
	}
	procs2, nodes2 := central.Cluster(inputs, sumFn, nil)
	sim2 := amp.NewSim(procs2, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim2.CrashAt(0, 1)
	sim2.Run(1_000_000)
	blocked := true
	for _, nd := range nodes2 {
		if _, ok := nd.Output(); ok {
			blocked = false
		}
	}

	return []row{
		{
			claim:    "n=1 task ≡ sequential function out=f(in) (§2.2, Figure 1)",
			measured: fmt.Sprintf("21/21 inputs: task accepts exactly out=f(in): %v", okSeq),
			ok:       okSeq,
		},
		{
			claim:    "n>1 task validity is a relation on I/O vectors with crashes excused",
			measured: fmt.Sprintf("consensus task accepts agreeing vector w/ crash, rejects split: %v", okDist),
			ok:       okDist,
		},
		{
			claim:    "reliable system: any task solvable centrally; 1 crash: same protocol blocks (§2.4)",
			measured: fmt.Sprintf("n=5 sum task: reliable run all correct: %v; coordinator crash blocks all: %v", okCentral, blocked),
			ok:       okCentral && blocked,
		},
	}
}

// runE1 measures Cole–Vishkin's round complexity against log*n+3 and
// contrasts with diameter-bound flooding.
func runE1() []row {
	var rows []row
	worstOK := true
	detail := ""
	for _, n := range []int{16, 256, 4096, 1 << 16, 1 << 20} {
		procs := local.NewColeVishkinRing(n)
		sys, err := round.NewSystem(graph.Ring(n), procs)
		if err != nil {
			return []row{{claim: "Cole–Vishkin runs", measured: err.Error(), ok: false}}
		}
		if _, err := sys.Run(local.CVIterations(n) + 8); err != nil {
			return []row{{claim: "Cole–Vishkin runs", measured: err.Error(), ok: false}}
		}
		colors := make([]int, n)
		maxR := 0
		for i, p := range procs {
			cv := p.(*local.ColeVishkin)
			colors[i] = cv.Output().(int)
			if r := cv.Rounds(); r > maxR {
				maxR = r
			}
		}
		bound := local.LogStar(n) + 3
		if !local.VerifyColoring(colors, 3) || maxR > bound {
			worstOK = false
		}
		detail = fmt.Sprintf("n=2^20: %d rounds ≤ log*n+3=%d, proper 3-coloring", maxR, bound)
	}
	rows = append(rows, row{
		claim:    "ring 3-coloring in ≤ log*n+3 rounds, n up to 2^20 (§3.2, [17])",
		measured: detail + fmt.Sprintf("; all sizes within bound: %v", worstOK),
		ok:       worstOK,
	})

	// Flooding on a ring needs D = ⌊n/2⌋ rounds to know the full input.
	n := 64
	inputs := make([]any, n)
	for i := range inputs {
		inputs[i] = i
	}
	d := n / 2
	procs := local.NewFlood(inputs, d, nil)
	sys, _ := round.NewSystem(graph.Ring(n), procs)
	if _, err := sys.Run(d); err != nil {
		return append(rows, row{claim: "flooding runs", measured: err.Error(), ok: false})
	}
	maxKnew := 0
	for _, p := range procs {
		f := p.(*local.Flood)
		if k := f.KnewAllAt(); k > maxKnew {
			maxKnew = k
		}
	}
	rows = append(rows, row{
		claim:    "full-information flooding learns the whole input in exactly D rounds (§3.2)",
		measured: fmt.Sprintf("ring n=%d (D=%d): last process completed at round %d", n, d, maxKnew),
		ok:       maxKnew == d,
	})
	return rows
}

// runE2 sweeps the TREE adversary over sizes and seeds against the n−1
// dissemination bound, plus an exhaustive check at n=4.
func runE2() []row {
	worst := 0
	ok := true
	for _, n := range []int{4, 16, 64, 256} {
		for seed := int64(0); seed < 8; seed++ {
			inputs := make([]any, n)
			for i := range inputs {
				inputs[i] = i
			}
			procs := dynnet.NewTreeFlood(inputs, n-1)
			sys, err := round.NewSystem(graph.Complete(n), procs,
				round.WithAdversary(madv.NewSpanningTree(seed)))
			if err != nil {
				return []row{{claim: "TREE flood runs", measured: err.Error(), ok: false}}
			}
			if _, err := sys.Run(n - 1); err != nil {
				return []row{{claim: "TREE flood runs", measured: err.Error(), ok: false}}
			}
			rounds, complete := dynnet.DisseminationTime(procs)
			if !complete || rounds > n-1 {
				ok = false
			}
			if rounds > worst {
				worst = rounds
			}
		}
	}

	// Exhaustive: every per-round spanning-tree choice at n=4, 3 rounds.
	inputs4 := []int{3, 1, 4, 1}
	anyv := make([]any, len(inputs4))
	for i, v := range inputs4 {
		anyv[i] = v
	}
	ex := &dynnet.Explorer{
		Base:    graph.Complete(4),
		Choices: dynnet.SpanningTreeChoices(4),
		NewProcs: func() []round.Process {
			return dynnet.NewTreeFlood(anyv, 3)
		},
		Rounds: 3,
		Check: func(outputs []any) string {
			for i, o := range outputs {
				vec, okv := o.([]any)
				if !okv || len(vec) != 4 {
					return fmt.Sprintf("process %d knows %v, want all 4 inputs", i, o)
				}
			}
			return ""
		},
	}
	v, count, err := ex.Run()
	exOK := err == nil && v == nil
	return []row{
		{
			claim:    "every input reaches every process in ≤ n−1 rounds under TREE (§3.3, [38])",
			measured: fmt.Sprintf("n∈{4..256}×8 seeds: worst dissemination %d rounds, within bound: %v", worst, ok),
			ok:       ok,
		},
		{
			claim:    "the bound holds for EVERY adversary strategy (not just sampled ones)",
			measured: fmt.Sprintf("exhaustive n=4: all %d strategy sequences disseminate in ≤ 3 rounds: %v", count, exOK),
			ok:       exOK,
		},
	}
}

// runE3 shows the TOUR separation: consensus-style FloodMin is correct
// under adv:∅ but broken by some TOUR strategy (SMPn[TOUR] ≃T wait-free
// read/write, where consensus is impossible).
func runE3() []row {
	inputs := []int{1, 0}

	exNone := &dynnet.Explorer{
		Base:     graph.Complete(2),
		Choices:  dynnet.NoneChoices(graph.Complete(2)),
		NewProcs: dynnet.NewFloodMin(inputs, 1),
		Rounds:   1,
		Check:    dynnet.CheckConsensus(inputs),
	}
	vNone, _, errNone := exNone.Run()
	okNone := errNone == nil && vNone == nil

	broken := true
	total := 0
	for rounds := 1; rounds <= 4; rounds++ {
		exTour := &dynnet.Explorer{
			Base:     graph.Complete(2),
			Choices:  dynnet.TournamentChoices(2),
			NewProcs: dynnet.NewFloodMin(inputs, rounds),
			Rounds:   rounds,
			Check:    dynnet.CheckConsensus(inputs),
		}
		vTour, count, errTour := exTour.Run()
		total += count
		if errTour != nil || vTour == nil {
			broken = false // no violating strategy found at this depth
		}
	}

	return []row{
		{
			claim:    "under adv:∅ one round of FloodMin solves consensus (§3.3)",
			measured: fmt.Sprintf("exhaustive: no violation: %v", okNone),
			ok:       okNone,
		},
		{
			claim:    "under adv:TOUR consensus fails — SMPn[TOUR] ≃T ARW wait-free (§3.3, [1])",
			measured: fmt.Sprintf("exhaustive depths 1–4 (%d executions): violating TOUR strategy found at every depth: %v", total, broken),
			ok:       broken,
		},
	}
}
