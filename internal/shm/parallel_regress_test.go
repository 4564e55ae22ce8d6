package shm

import (
	"math/rand"
	"strings"
	"testing"
)

// TestExploreParallelExecutionsMatchSerialAtViolation pins the
// Executions accounting of exploreFanOut when workers abort subtrees
// via cont() because an earlier root already found a violation: the
// merge counts every root before the minimum violating root plus that
// root's partial count, which must equal the serial explorer's
// stop-at-first-violation count exactly — across worker counts and
// repeated runs (the abort/CAS interleaving is nondeterministic; the
// result must not be).
func TestExploreParallelExecutionsMatchSerialAtViolation(t *testing.T) {
	salt := rand.Uint64() // a fresh flagged subset per run
	violating := 0
	for seed := int64(0); seed < 30; seed++ {
		g := genDPORProgram(seed)
		opts := ExploreOpts{
			Factory:    g.factory,
			MaxCrashes: int(seed % 3),
			Check:      dporOutcomeCheck(salt, 7),
		}
		serial := Explore(opts)
		if serial.Violation != "" {
			violating++
		}
		for _, workers := range []int{2, 3, 8} {
			for rep := 0; rep < 5; rep++ {
				popts := opts
				popts.Workers = workers
				par := Explore(popts)
				if par.Executions != serial.Executions || par.Violation != serial.Violation {
					t.Fatalf("seed %d workers %d rep %d: parallel %d/%q, serial %d/%q",
						seed, workers, rep, par.Executions, par.Violation, serial.Executions, serial.Violation)
				}
				if serial.Violation != "" {
					out, err := ReplayViolation(g.factory, par.Schedule, 0)
					if err != nil {
						t.Fatalf("seed %d workers %d: parallel schedule failed to replay: %v", seed, workers, err)
					}
					if opts.Check(out) == "" {
						t.Fatalf("seed %d workers %d: parallel schedule replayed clean", seed, workers)
					}
				}
			}
		}
	}
	if violating == 0 {
		t.Fatal("no seed produced a violation — the abort path was never exercised")
	}
}

// TestReplayViolationReportsDivergence pins the satellite fix: a
// schedule that no longer matches the program (stale after a code or
// seed change) must surface an error instead of silently returning a
// partial outcome.
func TestReplayViolationReportsDivergence(t *testing.T) {
	factory := func() *Run {
		r := NewRegister(0)
		return &Run{Bodies: []func(*Proc) any{
			func(p *Proc) any { r.Write(p, 1); return 1 },
			func(p *Proc) any { return r.Read(p) },
		}}
	}
	// A real schedule replays clean.
	good := []Decision{{Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 1}}
	if _, err := ReplayViolation(factory, good, 0); err != nil {
		t.Fatalf("valid schedule: unexpected error %v", err)
	}
	// Steps beyond a process's lifetime target a non-enabled process.
	over := []Decision{
		{Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 0}, {Kind: StepProc, Pid: 0},
		{Kind: StepProc, Pid: 1},
	}
	if _, err := ReplayViolation(factory, over, 0); err == nil {
		t.Fatal("overlong schedule: want divergence error, got nil")
	} else if !strings.Contains(err.Error(), "non-enabled") {
		t.Fatalf("overlong schedule: unexpected error %v", err)
	}
	// A schedule that ends with processes still running is incomplete.
	short := []Decision{{Kind: StepProc, Pid: 0}}
	if _, err := ReplayViolation(factory, short, 0); err == nil {
		t.Fatal("truncated schedule: want incomplete-replay error, got nil")
	} else if !strings.Contains(err.Error(), "still running") {
		t.Fatalf("truncated schedule: unexpected error %v", err)
	}
	// A violation found on a cutoff leaf under the default budget replays
	// with the same MaxSteps (0) it was searched under, full and DPOR alike.
	spinner := func() *Run {
		r := NewRegister(0)
		return &Run{Bodies: []func(*Proc) any{
			func(p *Proc) any {
				for {
					r.Read(p)
				}
			},
		}}
	}
	for _, dpor := range []bool{false, true} {
		res := Explore(ExploreOpts{Factory: spinner, DPOR: dpor, Check: func(out *Outcome) string {
			if out.Cutoff {
				return "cutoff"
			}
			return ""
		}})
		if res.Violation != "cutoff" || len(res.Schedule) != DefaultExploreSteps {
			t.Fatalf("spinner (DPOR=%v): violation %q with %d decisions", dpor, res.Violation, len(res.Schedule))
		}
		if out, err := ReplayViolation(spinner, res.Schedule, 0); err != nil || !out.Cutoff {
			t.Fatalf("spinner (DPOR=%v): cutoff schedule did not replay: %v", dpor, err)
		}
	}
}
