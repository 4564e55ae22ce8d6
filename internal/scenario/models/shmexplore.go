package models

import (
	"fmt"

	"distbasics/internal/scenario"
	"distbasics/internal/shm"
)

// ShmExplore is the differential model for the exhaustive shared-memory
// explorer: for a seeded family of small programs (n ≤ 3, short racy
// bodies), across crash budgets, DPOR must agree with the full search on
// violation presence over no more executions. The answers the retired seed-era DFS agreed
// on are frozen in testdata/digests.txt.
type ShmExplore struct{}

// Name implements scenario.Model.
func (*ShmExplore) Name() string { return "shmexplore" }

// Generate implements scenario.Model: body descriptors as in shmexec,
// but drawn from the explorer-sized family.
func (*ShmExplore) Generate(seed uint64) *scenario.Scenario {
	rng := scenario.NewRand(seed)
	n := 1 + rng.Intn(3)
	sc := &scenario.Scenario{Model: "shmexplore", Seed: seed, Procs: n}
	for i := 0; i < n; i++ {
		sc.Ops = append(sc.Ops, scenario.Op{
			Proc: i, Kind: scenario.OpBody,
			Key: rng.Intn(3), Val: 1 + rng.Intn(2),
		})
	}
	return sc
}

// buildExploreFactory materializes the scenario's body descriptors into
// a program factory (fresh objects per call, as Explore requires).
func buildExploreFactory(sc *scenario.Scenario) func() *shm.Run {
	ops := append([]scenario.Op(nil), sc.Ops...)
	return func() *shm.Run {
		reg := shm.NewRegister(0)
		faa := shm.NewFetchAndAdd(0)
		bodies := make([]func(*shm.Proc) any, len(ops))
		for b, op := range ops {
			reps := op.Val
			i := op.Proc
			switch op.Key % 3 {
			case 0: // racy increment chain
				bodies[b] = func(p *shm.Proc) any {
					for k := 0; k < reps; k++ {
						v := reg.Read(p).(int)
						reg.Write(p, v+1)
					}
					return reg.Read(p)
				}
			case 1: // fetch-and-add winner writes
				bodies[b] = func(p *shm.Proc) any {
					old := faa.Add(p, 1)
					if old == 0 {
						reg.Write(p, 10+i)
					}
					return old
				}
			default: // no atomic steps
				bodies[b] = func(p *shm.Proc) any { return i }
			}
		}
		return &shm.Run{Bodies: bodies}
	}
}

// exploreDigest renders the ExploreResult fields the searches must
// agree on.
func exploreDigest(r *shm.ExploreResult) string {
	return fmt.Sprintf("executions=%d violation=%q schedule=%v truncated=%v",
		r.Executions, r.Violation, r.Schedule, r.Truncated)
}

// Run implements scenario.Model.
func (*ShmExplore) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	if len(sc.Ops) == 0 {
		res.Tracef("degenerate: no bodies")
		return res
	}
	factory := buildExploreFactory(sc)
	// A check that flags some executions as violations so violation
	// schedules are exercised, not just counts.
	check := func(out *shm.Outcome) string {
		survivors := 0
		for i := range out.Finished {
			if out.Finished[i] {
				survivors++
			}
		}
		if survivors == 0 && len(out.Finished) > 1 {
			return fmt.Sprintf("everyone dead: %+v", out.Crashed)
		}
		return ""
	}
	for _, maxCrashes := range []int{0, 1, 2} {
		opts := shm.ExploreOpts{
			Factory:       factory,
			MaxCrashes:    maxCrashes,
			MaxExecutions: 4000,
			Check:         check,
		}
		got := shm.Explore(opts)
		res.Tracef("crashes=%d: %s", maxCrashes, exploreDigest(got))
		// DPOR rows: the reduced search must agree with the full search
		// on violation presence whenever neither was truncated (under
		// truncation the two searches cut different prefixes and are
		// incomparable).
		dporOpts := opts
		dporOpts.DPOR = true
		gotD := shm.Explore(dporOpts)
		res.Tracef("crashes=%d dpor: %s", maxCrashes, exploreDigest(gotD))
		if !got.Truncated && !gotD.Truncated {
			if (gotD.Violation != "") != (got.Violation != "") {
				res.Failf("crashes=%d: DPOR violation presence diverges from full search:\n  dpor: %s\n  full: %s",
					maxCrashes, exploreDigest(gotD), exploreDigest(got))
				return res
			}
			if got.Violation == "" && gotD.Executions > got.Executions {
				res.Failf("crashes=%d: DPOR explored more executions (%d) than the full search (%d)",
					maxCrashes, gotD.Executions, got.Executions)
				return res
			}
		}
		res.Completed += got.Executions
	}
	return res
}
