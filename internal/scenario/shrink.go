package scenario

// Shrink minimizes a failing scenario by delta debugging: it repeatedly
// tries to remove chunks of the Ops, Faults, and Sched lists (halves,
// then quarters, down to single elements, in the classic ddmin
// progression), keeping any edit under which the model still fails, and
// iterates to a fixpoint. Residual randomness is keyed off Scenario.Seed
// and therefore survives edits, so every candidate replays exactly.
//
// The failure predicate is Result.Failed — not the exact Reason — so a
// shrink may walk from one manifestation of a bug to a simpler one,
// which is the useful behavior for a reproducer.
//
// maxRuns bounds the number of Model.Run calls; Shrink returns the best
// scenario found when the budget is exhausted. The returned scenario
// always fails (it is the input when nothing smaller fails) and the
// second result is the number of runs spent.
func Shrink(m Model, sc *Scenario, maxRuns int) (*Scenario, int) {
	best := sc.Clone()
	runs := 0
	fails := func(cand *Scenario) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		return Run(m, cand).Failed
	}

	// One list at a time, to fixpoint over all three.
	type listAccess struct {
		length func(*Scenario) int
		cut    func(*Scenario, int, int) *Scenario // remove [i, j)
	}
	lists := []listAccess{
		{
			length: func(s *Scenario) int { return len(s.Ops) },
			cut: func(s *Scenario, i, j int) *Scenario {
				c := s.Clone()
				c.Ops = append(c.Ops[:i], c.Ops[j:]...)
				return c
			},
		},
		{
			length: func(s *Scenario) int { return len(s.Faults) },
			cut: func(s *Scenario, i, j int) *Scenario {
				c := s.Clone()
				c.Faults = append(c.Faults[:i], c.Faults[j:]...)
				return c
			},
		},
		{
			length: func(s *Scenario) int { return len(s.Sched) },
			cut: func(s *Scenario, i, j int) *Scenario {
				c := s.Clone()
				c.Sched = append(c.Sched[:i], c.Sched[j:]...)
				return c
			},
		},
	}

	for changed := true; changed && runs < maxRuns; {
		changed = false
		for _, l := range lists {
			if shrinkList(l.length, l.cut, &best, fails) {
				changed = true
			}
		}
	}
	return best, runs
}

// shrinkList runs the ddmin chunk loop on one list, updating *best in
// place. It reports whether anything was removed.
func shrinkList(length func(*Scenario) int, cut func(*Scenario, int, int) *Scenario,
	best **Scenario, fails func(*Scenario) bool) bool {
	removed := false
	for chunk := length(*best); chunk >= 1; chunk /= 2 {
		// Try removing each chunk-sized window, scanning from the end so
		// trailing schedule/ops suffixes (usually dead weight after the
		// violation point) go first.
		for i := length(*best) - chunk; i >= 0; i-- {
			if i+chunk > length(*best) {
				continue
			}
			cand := cut(*best, i, i+chunk)
			if fails(cand) {
				*best = cand
				removed = true
				// Stay at the same chunk size: more windows may now go.
				i = min(i, length(*best)-chunk) + 1
			}
		}
	}
	return removed
}
