package models_test

// The Model contract's robustness half: Run must tolerate any scenario
// Decode accepts and any mutant, skipping what is invalid for the model
// instead of panicking. A panic would surface in a campaign as a
// "panic: …" failure; here it fails the test by name.

import (
	"strings"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// TestEveryModelSurvivesMutation runs a short mutating campaign over
// every registered model: no mutant may fail, panics included. One seed
// and four mutants is the smallest budget that reached abdmulti's
// retargeted-write panic ("process 0 is not the writer") before the
// model took the register from the chain.
func TestEveryModelSurvivesMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep is seconds-long")
	}
	for _, m := range models.All() {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			c := &scenario.Campaign{Model: m, Start: 1, Count: 1, Mutants: 4, MaxShrinkRuns: 200}
			failures, stats := c.Run()
			for _, f := range failures {
				scenario.ReportScenariof(t, f.Shrunk, "%s", f.Result.Reason)
			}
			if stats.Runs != 5 {
				t.Errorf("campaign ran %d times, want 5", stats.Runs)
			}
		})
	}
}

// TestEveryModelSurvivesDecodableInputs edits every model's seed-1
// scenario into the shapes a hand-written file can take: Decode must
// refuse a negative process count and a fault naming a process outside
// the system, and every model must run what Decode accepts — a
// degenerate system, op keys no generator uses — without failing.
func TestEveryModelSurvivesDecodableInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep is seconds-long")
	}
	cases := []struct {
		name string
		edit func(sc *scenario.Scenario)
		// refused, when set, is what Decode's error must quote of the
		// offending line.
		refused string
	}{
		{"no processes", func(sc *scenario.Scenario) { sc.Procs, sc.Faults = 0, nil }, ""},
		{"one process", func(sc *scenario.Scenario) {
			sc.Procs = 1
			for i := range sc.Faults {
				sc.Faults[i].Proc = 0
				if len(sc.Faults[i].Group) > 0 {
					sc.Faults[i].Group = []int{0}
				}
			}
		}, ""},
		{"op keys outside every generator's range", func(sc *scenario.Scenario) {
			for i := range sc.Ops {
				if i%2 == 0 {
					sc.Ops[i].Key += 100
				} else {
					sc.Ops[i].Key = -1 - sc.Ops[i].Key
				}
			}
		}, ""},
		{"negative procs", func(sc *scenario.Scenario) { sc.Procs = -1 }, "procs=-1"},
		{"crash past the last process", func(sc *scenario.Scenario) {
			sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultCrash, Proc: sc.Procs, From: 10, Until: 90})
		}, "fault kind=crash"},
		{"snapshot crash of process -1", func(sc *scenario.Scenario) {
			sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultSnapCrash, Proc: -1, From: 10, Until: 90, Pct: 2})
		}, "fault kind=snapcrash proc=-1"},
		{"partition island outside the system", func(sc *scenario.Scenario) {
			sc.Procs = max(sc.Procs, 1)
			sc.Faults = append(sc.Faults, scenario.Fault{Kind: scenario.FaultPartition, From: 10, Until: 90, Group: []int{0, sc.Procs}})
		}, "fault kind=partition"},
	}
	for _, m := range models.All() {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			for _, tc := range cases {
				sc := m.Generate(1)
				sc.Ops = sc.Ops[:min(len(sc.Ops), 6)] // the shape matters, not the workload
				tc.edit(sc)
				dec, err := scenario.Decode(sc.Encode())
				switch {
				case tc.refused != "" && err == nil:
					t.Errorf("%s: Decode accepted %s", tc.name, sc.Summary())
				case tc.refused != "" && !strings.Contains(err.Error(), tc.refused):
					t.Errorf("%s: Decode error %q does not quote the line (%q)", tc.name, err, tc.refused)
				case tc.refused == "" && err != nil:
					t.Errorf("%s: Decode refused a legal scenario: %v", tc.name, err)
				case tc.refused == "":
					if res := scenario.Run(m, dec); res.Failed {
						scenario.ReportScenariof(t, dec, "%s: %s", tc.name, res.Reason)
					}
				}
			}
		})
	}
}
