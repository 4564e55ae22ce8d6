package models_test

// The harness's acceptance gate, as one sweep over one table: each seed
// of every model is generated twice, run once and its decoded encoding
// run once more, and three tests read the answers.
//
//   - TestReplayIsByteStablePerAdapter: replay is byte-stable —
//     generating a seed twice yields identical scenarios, the textual
//     encoding round-trips, and the decoded scenario's Result equals the
//     original's, traces and verdicts included — so a reported seed, an
//     encoded reproducer file and a pinned Go literal are all complete
//     reproducers.
//   - TestAllModelsGreen: every seed passes its model's oracle.
//   - TestModelDigests (digests_test.go): every Result digest equals the
//     golden store's.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// seedBudget is how many seeds (from 1) the sweep runs of a model: all
// 120 of the golden store for the models whose 120-seed campaign takes
// well under a second (lease: about 0.2 s), a few of the ones that take
// seconds.
func seedBudget(model string) uint64 {
	switch model {
	case "rsm", "jobq", "transport":
		return 2
	case "shmexplore":
		return 4
	}
	return 120
}

// seedRun is the sweep's answer for one seed: the Result's digest, what
// broke replay and what the oracle rejected ("" for none).
type seedRun struct {
	digest, replay, failure string
}

// sweep runs every model's budget once per test binary, in seed order.
var sweep = sync.OnceValue(func() map[string][]seedRun {
	out := make(map[string][]seedRun)
	for _, m := range models.All() {
		for seed := uint64(1); seed <= seedBudget(m.Name()); seed++ {
			out[m.Name()] = append(out[m.Name()], runSeed(m, seed))
		}
	}
	return out
})

func runSeed(m scenario.Model, seed uint64) (r seedRun) {
	sc := m.Generate(seed)
	res := scenario.Run(m, sc)
	r.digest = res.Digest()
	if res.Failed {
		shrunk, _ := scenario.Shrink(m, sc, 500)
		r.failure = fmt.Sprintf("oracle failure: %s (shrunk to %s)", res.Reason, shrunk.Summary())
	}
	if sc.Model != m.Name() || sc.Seed != seed {
		r.replay = fmt.Sprintf("Generate mislabeled the scenario: model=%q seed=%d", sc.Model, sc.Seed)
		return r
	}
	if sc2 := m.Generate(seed); !reflect.DeepEqual(sc, sc2) {
		r.replay = "Generate is not deterministic"
		return r
	}
	dec, err := scenario.Decode(sc.Encode())
	switch {
	case err != nil:
		r.replay = fmt.Sprintf("encoding does not decode: %v", err)
	case !reflect.DeepEqual(dec, sc):
		r.replay = fmt.Sprintf("encode/decode is not a round trip:\n%+v\n%+v", sc, dec)
	case !reflect.DeepEqual(res, scenario.Run(m, dec)):
		r.replay = "replay is not byte-stable: the decoded scenario's trace or verdict differs from the original's"
	}
	return r
}

// eachSeed runs check on every swept seed of every model, in a subtest
// per model.
func eachSeed(t *testing.T, check func(t *testing.T, model string, seed uint64, r seedRun)) {
	runs := sweep()
	for _, m := range models.All() {
		t.Run(m.Name(), func(t *testing.T) {
			for i, r := range runs[m.Name()] {
				check(t, m.Name(), uint64(i+1), r)
			}
		})
	}
}

func TestReplayIsByteStablePerAdapter(t *testing.T) {
	eachSeed(t, func(t *testing.T, model string, seed uint64, r seedRun) {
		if r.replay != "" {
			scenario.Reportf(t, model, seed, "%s", r.replay)
		}
	})
}

// TestAllModelsGreen is the cross-model oracle fence. Any failure is a
// real bug (or a generator that produces illegal scenarios) and is
// reported shrunk, with its replay invocation.
func TestAllModelsGreen(t *testing.T) {
	eachSeed(t, func(t *testing.T, model string, seed uint64, r seedRun) {
		if r.failure != "" {
			scenario.Reportf(t, model, seed, "%s", r.failure)
		}
	})
}
