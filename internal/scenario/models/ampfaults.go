package models

import (
	"slices"

	"distbasics/internal/amp"
	"distbasics/internal/scenario"
)

// This file is the shared bridge between the scenario DSL's fault
// vocabulary and the amp simulator, used by every amp-backed model:
// network faults become Adversaries, crash and clock faults the Sim's
// own. Fault generation and wiring live here once, not once per
// package.

// ampAdversaries maps the scenario's network faults onto amp
// adversaries, in list order (the Sim consults them in that order).
func ampAdversaries(faults []scenario.Fault) []amp.Adversary {
	var advs []amp.Adversary
	for _, f := range faults {
		switch f.Kind {
		case scenario.FaultPartition:
			advs = append(advs, amp.Partition(amp.Time(f.From), amp.Time(f.Until), f.Group))
		case scenario.FaultDrop:
			advs = append(advs, amp.NewDropWindow(f.Sub, float64(f.Pct)/100, amp.Time(f.From), amp.Time(f.Until)))
		case scenario.FaultIsolate:
			advs = append(advs, amp.Isolate(amp.Time(f.From), amp.Time(f.Until), f.Group...))
		case scenario.FaultSkew:
			advs = append(advs, amp.SkewLinks(amp.Time(f.Pct), func(src, _ int) bool { return src%2 == 0 }))
		case scenario.FaultCut:
			advs = append(advs, cut(amp.Time(f.From), amp.Time(f.Until), f.Proc, f.Group))
		}
	}
	return advs
}

// cut drops what src sends to any process in dsts during [from,
// until): an outbound-only cut, such as a leader whose heartbeats stop
// reaching its followers while theirs still reach it.
func cut(from, until amp.Time, src int, dsts []int) amp.Adversary {
	to := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		to[d] = true
	}
	return amp.AdversaryFunc(func(s, d int, at amp.Time) amp.Verdict {
		return amp.Verdict{Drop: s == src && to[d] && at >= from && at < until}
	})
}

// ampProcFaults schedules the scenario's process faults on sim, in list
// order: for a crash, a crash at From and, if Until > From, a recovery
// (the end of a pause) at Until; for a clock fault, a rate window. A
// clock window that is empty or overlaps an earlier one of the same
// process is skipped, and a rate below 10% is raised to it, so every
// decoded or mutated scenario runs. Models call it just before their
// first sim.Run.
func ampProcFaults(sim *amp.Sim, faults []scenario.Fault) {
	clocks := make(map[int][]scenario.Fault)
	for _, f := range faults {
		switch f.Kind {
		case scenario.FaultCrash:
			sim.CrashAt(f.Proc, amp.Time(f.From))
			if f.Until > f.From {
				sim.RecoverAt(f.Proc, amp.Time(f.Until))
			}
		case scenario.FaultClock:
			if f.Until <= f.From || slices.ContainsFunc(clocks[f.Proc], func(g scenario.Fault) bool {
				return g.From < f.Until && f.From < g.Until
			}) {
				continue
			}
			clocks[f.Proc] = append(clocks[f.Proc], f)
			sim.ClockRate(f.Proc, amp.Time(f.From), amp.Time(f.Until), max(f.Pct, -90))
		}
	}
}

// genAmpFaults draws a random fault schedule for an n-process amp
// system over the given virtual-time horizon: up to two partition
// windows (sometimes a clean minority split, sometimes an even split
// that blocks every quorum), up to two crash-recovery injections, and
// sometimes a lossy window.
func genAmpFaults(rng *scenario.Rand, n int, horizon int64) []scenario.Fault {
	var faults []scenario.Fault
	for w := 0; w < 1+rng.Intn(2); w++ {
		from := rng.Int63n(horizon)
		k := 1 + rng.Intn(n/2) // island size; k == n/2 may block every quorum
		faults = append(faults, scenario.Fault{
			Kind: scenario.FaultPartition,
			From: from, Until: from + 100 + rng.Int63n(horizon/2),
			Group: scenario.SortGroup(rng.Perm(n)[:k]),
		})
	}
	for c := 0; c < rng.Intn(3); c++ {
		at := rng.Int63n(horizon)
		faults = append(faults, scenario.Fault{
			Kind: scenario.FaultCrash, Proc: rng.Intn(n),
			From: at, Until: at + 50 + rng.Int63n(horizon/2),
		})
	}
	if rng.Intn(3) == 0 {
		from := rng.Int63n(2 * horizon / 3)
		faults = append(faults, scenario.Fault{
			Kind: scenario.FaultDrop, Pct: 20,
			From: from, Until: from + horizon/5, Sub: rng.Int63(),
		})
	}
	return faults
}

// genHealingFaults draws the rsm model's bounded fault schedule, every
// fault of which heals: one minority partition window, one
// crash-recovery of the bystander replica, and sometimes an early lossy
// window.
func genHealingFaults(rng *scenario.Rand, replicas, bystander int) []scenario.Fault {
	from := 200 + rng.Int63n(800)
	faults := []scenario.Fault{{
		Kind: scenario.FaultPartition,
		From: from, Until: from + 200 + rng.Int63n(600),
		Group: []int{rng.Intn(replicas)},
	}}
	at := rng.Int63n(1200)
	faults = append(faults, scenario.Fault{
		Kind: scenario.FaultCrash, Proc: bystander,
		From: at, Until: at + 100 + rng.Int63n(500),
	})
	if rng.Intn(2) == 0 {
		lf := rng.Int63n(600)
		faults = append(faults, scenario.Fault{
			Kind: scenario.FaultDrop, Pct: 15, From: lf, Until: lf + 200, Sub: rng.Int63(),
		})
	}
	return faults
}

// ampDelay picks the run's delay model from the scenario's private
// config stream (a function of the seed only, so it survives shrinking).
func ampDelay(rng *scenario.Rand) amp.DelayModel {
	if rng.Intn(3) == 0 {
		return amp.FixedDelay{D: amp.Time(1 + rng.Int63n(8))}
	}
	return amp.UniformDelay{Min: 1, Max: amp.Time(2 + rng.Int63n(12))}
}
