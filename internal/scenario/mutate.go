package scenario

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
)

// This file is the coverage-guided half of Campaign. Independent seeds
// never leave the generator's distribution: every run starts from
// Model.Generate and no information flows between runs, so fault
// combinations or op shapes the generator draws rarely (or never) stay
// unexplored however many seeds are spent. Campaign closes the loop:
// each run is summarized into coverage signatures, a scenario that
// produces a signature no earlier run produced joins the corpus, and
// the Mutants runs edit corpus entries with the sub-stream-seeded DSL
// edits below. Mutants remain first-class reproducers: they
// encode/decode through the v1 format, shrink through the same ddmin
// shrinker, and replay byte-identically.

// coverageShape normalizes a line into its shape: every digit run
// becomes '#', so "p3 write(7) -> 7 @[141,209]" and "p0 write(2) ->
// 2 @[87,90]" are the same signature.
func coverageShape(s string) string {
	var b strings.Builder
	inDigits := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			if !inDigits {
				b.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		b.WriteRune(r)
	}
	return b.String()
}

// coverage summarizes one run into its signatures — behaviours
// observed, not inputs tried. A signature is an equivalence class:
//   - the shape of every trace line (failures included: Failf traces
//     them), since trace lines are emitted by distinct code paths and
//     the shape names the path while erasing run-specific values;
//   - the combination of fault kinds composed against the run
//     ("faults:crash+drop") — generators draw each kind with fixed
//     odds, so a rare combination is reached far sooner by mutating a
//     corpus entry that has two of three than by waiting for a seed
//     to draw all of them at once;
//   - how many operations completed (log2-bucketed, so 3 and 200 are
//     different signatures but 200 and 210 are not) out of how many
//     processes.
func coverage(sc *Scenario, res *Result) []string {
	kinds := make(map[string]bool)
	for _, f := range sc.Faults {
		kinds[f.Kind.String()] = true
	}
	sigs := []string{
		"faults:" + strings.Join(slices.Sorted(maps.Keys(kinds)), "+"),
		fmt.Sprintf("completed:%d/%d", bits.Len(uint(res.Completed)), sc.Procs),
	}
	for _, line := range res.Trace {
		sigs = append(sigs, "t:"+coverageShape(line))
	}
	return sigs
}

// mutateScenario applies 1–3 sub-stream-seeded DSL edits to a copy of
// sc. Edits stay inside the scenario contract models already honor for
// shrinking — element deletion, duplication of existing elements, and
// field perturbation within the vocabulary the scenario already uses —
// so a mutant is always a valid input for Model.Run.
func mutateScenario(rng *Rand, sc *Scenario) *Scenario {
	c := sc.Clone()
	for e := 1 + rng.Intn(3); e > 0; e-- {
		switch rng.Intn(9) {
		case 0: // perturb an op's value
			if len(c.Ops) > 0 {
				c.Ops[rng.Intn(len(c.Ops))].Val = rng.Intn(16)
			}
		case 1: // retarget an op's process or key
			if len(c.Ops) > 0 {
				op := &c.Ops[rng.Intn(len(c.Ops))]
				if rng.Bool() && c.Procs > 0 {
					op.Proc = rng.Intn(c.Procs)
				} else {
					op.Key = rng.Intn(4)
				}
			}
		case 2: // duplicate an op in place
			if len(c.Ops) > 0 {
				i := rng.Intn(len(c.Ops))
				c.Ops = append(c.Ops, Op{})
				copy(c.Ops[i+1:], c.Ops[i:])
				c.Ops[i+1] = c.Ops[i]
			}
		case 3: // delete an op
			if len(c.Ops) > 0 {
				i := rng.Intn(len(c.Ops))
				c.Ops = append(c.Ops[:i], c.Ops[i+1:]...)
			}
		case 4: // perturb a fault's window, magnitude, or target
			if len(c.Faults) > 0 {
				f := &c.Faults[rng.Intn(len(c.Faults))]
				switch rng.Intn(4) {
				case 0:
					f.From = max(0, f.From+rng.Int63n(601)-300)
				case 1:
					f.Until = max(f.From, f.Until+rng.Int63n(601)-300)
				case 2:
					f.Pct = rng.Intn(101)
				case 3:
					if c.Procs > 0 {
						f.Proc = rng.Intn(c.Procs)
					}
				}
			}
		case 5: // duplicate-and-perturb a fault (widen the combination)
			if len(c.Faults) > 0 {
				f := c.Faults[rng.Intn(len(c.Faults))]
				f.Group = append([]int(nil), f.Group...)
				f.From = max(0, f.From+rng.Int63n(601)-300)
				f.Until = max(f.From, f.Until+rng.Int63n(601)-300)
				if c.Procs > 0 {
					f.Proc = rng.Intn(c.Procs)
				}
				c.Faults = append(c.Faults, f)
			}
		case 6: // delete a fault
			if len(c.Faults) > 0 {
				i := rng.Intn(len(c.Faults))
				c.Faults = append(c.Faults[:i], c.Faults[i+1:]...)
			}
		case 7: // edit the schedule stream
			switch {
			case len(c.Sched) > 0 && rng.Bool():
				c.Sched[rng.Intn(len(c.Sched))] = rng.Int63()
			case len(c.Sched) > 0 && rng.Bool():
				c.Sched = c.Sched[:rng.Intn(len(c.Sched))]
			default:
				c.Sched = append(c.Sched, rng.Int63())
			}
		case 8: // reseed the residual randomness (delays, policy draws)
			c.Seed = rng.Uint64()
		}
	}
	return c
}
