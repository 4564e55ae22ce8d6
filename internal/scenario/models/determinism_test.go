package models_test

// The harness's acceptance gate: replay is byte-stable. For every
// adapter, generating the same seed twice yields identical scenarios,
// running the same scenario twice yields identical Results (traces and
// verdicts included), and the textual encoding round-trips — so a
// reported seed, an encoded reproducer file, and a pinned Go literal
// are all complete reproducers.

import (
	"reflect"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// seedBudget balances coverage against runtime per model (rsm and
// universal drive six-figure virtual-time simulations per seed).
var seedBudget = map[string]uint64{
	"abd": 6, "abdmulti": 2, "rsm": 2, "kv": 2, "jobq": 2, "benor": 6, "universal": 2, "ampchatter": 8,
	"shmexec": 10, "shmexplore": 4, "roundequiv": 1, "check": 15, "flp": 4,
	"dynnet": 10, "madv": 6, "transport": 2,
}

func TestReplayIsByteStablePerAdapter(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism sweep is seconds-long")
	}
	for _, m := range models.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			budget, ok := seedBudget[m.Name()]
			if !ok {
				t.Fatalf("model %q missing from seedBudget — add it", m.Name())
			}
			for seed := uint64(1); seed <= budget; seed++ {
				sc := m.Generate(seed)
				if sc.Model != m.Name() || sc.Seed != seed {
					t.Fatalf("Generate(%d) mislabeled scenario: model=%q seed=%d", seed, sc.Model, sc.Seed)
				}
				if sc2 := m.Generate(seed); !reflect.DeepEqual(sc, sc2) {
					t.Fatalf("seed %d: Generate is not deterministic", seed)
				}
				r1 := m.Run(sc)
				r2 := m.Run(sc.Clone())
				if !reflect.DeepEqual(r1, r2) {
					scenario.Reportf(t, m.Name(), seed, "replay is not byte-stable: traces/verdicts differ between two runs of the same scenario")
					return
				}
				dec, err := scenario.Decode(sc.Encode())
				if err != nil {
					t.Fatalf("seed %d: encoding does not decode: %v", seed, err)
				}
				if !reflect.DeepEqual(dec, sc) {
					t.Fatalf("seed %d: encode/decode is not a round trip:\n%+v\n%+v", seed, sc, dec)
				}
				r3 := m.Run(dec)
				if !reflect.DeepEqual(r1, r3) {
					scenario.Reportf(t, m.Name(), seed, "decoded scenario replays differently from the original")
					return
				}
			}
		})
	}
}

// TestAllModelsGreen is the cross-model oracle fence: every registered
// model must pass its oracle on a band of seeds. Any failure is a real
// bug (or a generator that produces illegal scenarios) and is reported
// with its replay invocation.
func TestAllModelsGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep is seconds-long")
	}
	for _, m := range models.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			c := &scenario.Campaign{Model: m, Start: 1, Count: seedBudget[m.Name()], MaxShrinkRuns: 500}
			failures, stats := c.Run()
			for _, f := range failures {
				scenario.Reportf(t, m.Name(), f.Seed, "oracle failure: %s (shrunk to %s)",
					f.Result.Reason, f.Shrunk.Summary())
			}
			if stats.Runs != int(seedBudget[m.Name()]) {
				t.Fatalf("campaign ran %d seeds, want %d", stats.Runs, seedBudget[m.Name()])
			}
		})
	}
}
