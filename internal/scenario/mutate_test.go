package scenario_test

import (
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// TestMutationBeatsSamplingAtEqualBudget is the tentpole's acceptance
// check for the fuzz half: at the SAME Model.Run budget, a campaign that
// spends three quarters of it on mutants must reach oracle-state
// coverage that independent-seed sampling (Mutants: 0) does not. Both
// campaigns are deterministic, so this is a stable property of the
// harness, not a flaky statistical claim.
func TestMutationBeatsSamplingAtEqualBudget(t *testing.T) {
	m, err := models.ByName("benor")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 120
	_, sampling := (&scenario.Campaign{Model: m, Start: 1, Count: budget}).Run()

	c := &scenario.Campaign{Model: m, Start: 1, Count: budget / 4, Mutants: budget - budget/4}
	_, stats := c.Run()
	if stats.Runs != budget || sampling.Runs != budget {
		t.Fatalf("campaigns spent %d and %d runs, want %d", stats.Runs, sampling.Runs, budget)
	}

	var onlyMutation []string
	for sig := range stats.Coverage {
		if !sampling.Coverage[sig] {
			onlyMutation = append(onlyMutation, sig)
		}
	}
	t.Logf("budget %d: sampling %d signatures, mutation %d (%d after seeds), %d mutation-only",
		budget, len(sampling.Coverage), len(stats.Coverage), stats.SeedSignatures, len(onlyMutation))
	if len(stats.Coverage) <= stats.SeedSignatures {
		t.Fatalf("mutation phase added no coverage past the seeds (%d signatures)", stats.SeedSignatures)
	}
	if len(onlyMutation) == 0 {
		t.Fatal("mutation campaign reached no coverage beyond equal-budget independent sampling")
	}
}

// TestMutationCampaignDeterministic: the whole campaign is a pure
// function of (Model, Start, Count, Mutants) — stats and coverage must
// be identical across repeated runs.
func TestMutationCampaignDeterministic(t *testing.T) {
	m, err := models.ByName("benor")
	if err != nil {
		t.Fatal(err)
	}
	run := func() scenario.Stats {
		c := &scenario.Campaign{Model: m, Start: 3, Count: 10, Mutants: 30}
		_, stats := c.Run()
		return stats
	}
	a, b := run(), run()
	if a.Runs != b.Runs || a.Failures != b.Failures || len(a.Coverage) != len(b.Coverage) ||
		len(a.Corpus) != len(b.Corpus) || a.Completed != b.Completed || a.Pending != b.Pending {
		t.Fatalf("campaign not deterministic:\n  %+v\n  %+v", a, b)
	}
	for sig := range a.Coverage {
		if !b.Coverage[sig] {
			t.Fatalf("coverage sets differ: %q only in first run", sig)
		}
	}
	for i := range a.Corpus {
		if string(a.Corpus[i].Encode()) != string(b.Corpus[i].Encode()) {
			t.Fatalf("corpus entry %d differs between runs", i)
		}
	}
}

// TestMutantsRemainReplayable: every corpus scenario a mutation
// campaign retains must round-trip through Encode/Decode and replay to
// an identical result — mutants are first-class reproducers.
func TestMutantsRemainReplayable(t *testing.T) {
	m, err := models.ByName("abd")
	if err != nil {
		t.Fatal(err)
	}
	c := &scenario.Campaign{Model: m, Start: 1, Count: 8, Mutants: 22}
	_, stats := c.Run()
	if len(stats.Corpus) <= 8 {
		t.Fatalf("mutation retained no corpus entries past the seeds (corpus %d)", len(stats.Corpus))
	}
	for i, sc := range stats.Corpus {
		dec, err := scenario.Decode(sc.Encode())
		if err != nil {
			t.Fatalf("corpus entry %d does not round-trip: %v", i, err)
		}
		want, got := m.Run(sc), m.Run(dec)
		if want.TraceString() != got.TraceString() || want.Failed != got.Failed {
			t.Fatalf("corpus entry %d replays differently after round-trip", i)
		}
	}
}

// TestMutationCampaignShrinksFailures: the mutated-oracle fence — a
// deliberately weakened ABD read quorum must be caught by the mutation
// campaign, and ddmin must still minimize the failing mutant while it
// keeps failing.
func TestMutationCampaignShrinksFailures(t *testing.T) {
	weak := &models.ABD{WeakReadQuorum: 1}
	var found *scenario.Failure
	for attempt := uint64(1); attempt <= 4 && found == nil; attempt++ {
		c := &scenario.Campaign{Model: weak, Start: attempt * 50, Count: 15, Mutants: 45, MaxShrinkRuns: 400}
		failures, _ := c.Run()
		if len(failures) > 0 {
			found = &failures[0]
		}
	}
	if found == nil {
		t.Fatal("weakened read quorum produced no failure under mutation campaigns")
	}
	if found.Shrunk == nil || !found.ShrunkResult.Failed {
		t.Fatal("failure was not shrunk to a still-failing reproducer")
	}
	if len(found.Shrunk.Ops)+len(found.Shrunk.Faults) > len(found.Scenario.Ops)+len(found.Scenario.Faults) {
		t.Fatalf("shrinking grew the scenario: %s -> %s", found.Scenario.Summary(), found.Shrunk.Summary())
	}
	// The shrunk mutant must replay through the text format and still
	// fail under the weak model but pass under the sound one.
	dec, err := scenario.Decode(found.Shrunk.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Run(dec).Failed {
		t.Fatal("decoded mutant reproducer no longer fails under the weak model")
	}
	sound, _ := models.ByName("abd")
	if sound.Run(dec).Failed {
		t.Fatal("decoded mutant reproducer fails even under the sound model")
	}
}
