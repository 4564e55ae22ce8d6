package models_test

// Mutation verification of the harness itself: deliberately weakened
// algorithms must be caught by the oracles AND shrink to reproducers of
// at most 12 operations and 3 fault events. Two mutants are pinned:
//
//   - abd.Register.ReadQuorum = 1: reads return after one reply instead
//     of a majority, breaking quorum intersection — the linearizability
//     oracle must reject some scenario.
//   - mpcons.BenOr.CoinBias = ±1: the round-end estimate ignores phase-2
//     reports and takes a constant coin, breaking the adoption step the
//     safety proof leans on — the agreement oracle must reject.
//
// Each mutant also has its previously-shrunk reproducer pinned as a Go
// literal: the literal must still fail under the mutant and still pass
// under the sound implementation, so the reproducers stay honest as the
// code evolves.

import (
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// findAndShrink scans seeds until the mutated model fails, shrinks the
// failure, and asserts the reproducer size bounds.
func findAndShrink(t *testing.T, m scenario.Model, maxSeed uint64) *scenario.Scenario {
	t.Helper()
	for seed := uint64(1); seed <= maxSeed; seed++ {
		sc := m.Generate(seed)
		res := m.Run(sc)
		if !res.Failed {
			continue
		}
		t.Logf("mutant caught at seed %d: %s", seed, res.Reason)
		shrunk, runs := scenario.Shrink(m, sc, 2000)
		t.Logf("shrunk %s -> %s in %d runs", sc.Summary(), shrunk.Summary(), runs)
		if !m.Run(shrunk).Failed {
			t.Fatalf("shrunk scenario no longer fails")
		}
		if len(shrunk.Ops) > 12 {
			t.Errorf("shrunk reproducer has %d ops, bound is 12:\n%s", len(shrunk.Ops), shrunk.GoLiteral())
		}
		if len(shrunk.Faults) > 3 {
			t.Errorf("shrunk reproducer has %d fault events, bound is 3:\n%s", len(shrunk.Faults), shrunk.GoLiteral())
		}
		return shrunk
	}
	t.Fatalf("mutant was never caught in %d seeds — the oracle is blind to it", maxSeed)
	return nil
}

func TestMutationWeakenedABDReadQuorumIsCaughtAndShrunk(t *testing.T) {
	findAndShrink(t, &models.ABD{WeakReadQuorum: 1}, 60)
}

func TestMutationBenOrCoinBiasIsCaughtAndShrunk(t *testing.T) {
	for _, bias := range []int{1, -1} {
		findAndShrink(t, &models.BenOr{CoinBias: bias}, 400)
	}
}

// abdMutantReproducer is the shrunk reproducer found by
// TestMutationWeakenedABDReadQuorumIsCaughtAndShrunk (seed 6, shrunk
// from 17 ops / 1 fault): five writes racing four reads at a replica
// that a partition cuts off from the writer; with a quorum of one, the
// reader's own reply, which runs in its calling turn, answers each read
// with its stale copy. Pinned so the minimal scenario keeps failing
// under the mutant and keeps passing under sound ABD.
var abdMutantReproducer = &scenario.Scenario{
	Model: "abd", Seed: 6, Procs: 5,
	Ops: []scenario.Op{
		{Proc: 0, Kind: scenario.OpWrite, Key: 0, Val: 1},
		{Proc: 0, Kind: scenario.OpWrite, Key: 0, Val: 2},
		{Proc: 0, Kind: scenario.OpWrite, Key: 0, Val: 3},
		{Proc: 0, Kind: scenario.OpWrite, Key: 0, Val: 4},
		{Proc: 0, Kind: scenario.OpWrite, Key: 0, Val: 5},
		{Proc: 2, Kind: scenario.OpRead, Key: 0, Val: 0},
		{Proc: 2, Kind: scenario.OpRead, Key: 0, Val: 0},
		{Proc: 2, Kind: scenario.OpRead, Key: 0, Val: 0},
		{Proc: 2, Kind: scenario.OpRead, Key: 0, Val: 0},
	},
	Faults: []scenario.Fault{
		{Kind: scenario.FaultPartition, Proc: 0, From: 482, Until: 884, Pct: 0, Sub: 0, Group: []int{2, 3}},
	},
}

// benorMutantReproducers are the shrunk reproducers found by
// TestMutationBenOrCoinBiasIsCaughtAndShrunk: one holder of the
// majority input hears no minority process and decides in round 1, and
// its links out are cut from just after its round-1 report; the others
// finish the round without its aux and its decide, and the constant
// coin takes them to the other value.
var benorMutantReproducers = []struct {
	bias int
	sc   *scenario.Scenario
}{
	{bias: 1, sc: &scenario.Scenario{
		Model: "benor", Seed: 3, Procs: 3,
		Ops: []scenario.Op{
			{Proc: 1, Kind: scenario.OpPropose, Key: 0, Val: 1},
		},
		Faults: []scenario.Fault{
			{Kind: scenario.FaultCut, Proc: 1, From: 0, Until: 183, Pct: 0, Sub: 0, Group: []int{0}},
			{Kind: scenario.FaultCut, Proc: 0, From: 1, Until: 183, Pct: 0, Sub: 0, Group: []int{1, 2}},
		},
	}},
	{bias: -1, sc: &scenario.Scenario{
		Model: "benor", Seed: 76, Procs: 4,
		Ops: []scenario.Op{
			{Proc: 1, Kind: scenario.OpPropose, Key: 0, Val: 1},
			{Proc: 2, Kind: scenario.OpPropose, Key: 0, Val: 1},
			{Proc: 3, Kind: scenario.OpPropose, Key: 0, Val: 1},
		},
		Faults: []scenario.Fault{
			{Kind: scenario.FaultCut, Proc: 0, From: 0, Until: 647, Pct: 0, Sub: 0, Group: []int{1}},
			{Kind: scenario.FaultCut, Proc: 1, From: 1, Until: 647, Pct: 0, Sub: 0, Group: []int{0, 2, 3}},
		},
	}},
}

func TestPinnedABDReproducerReplays(t *testing.T) {
	// Note: the mutant half of this test is NOT replayable through
	// basicsfuzz (the registered "abd" model is the sound one); rerun
	// this test, or run the literal through &models.ABD{WeakReadQuorum: 1}.
	mutant := &models.ABD{WeakReadQuorum: 1}
	res := mutant.Run(abdMutantReproducer)
	if !res.Failed {
		t.Errorf("pinned reproducer no longer fails under the weakened read quorum (ReadQuorum=1):\n%s",
			abdMutantReproducer.GoLiteral())
	}
	sound := &models.ABD{}
	if res := sound.Run(abdMutantReproducer); res.Failed {
		scenario.ReportScenariof(t, abdMutantReproducer,
			"pinned reproducer fails under sound ABD: %s", res.Reason)
	}
}

func TestPinnedBenOrReproducersReplay(t *testing.T) {
	// See TestPinnedABDReproducerReplays on mutant replayability.
	for _, r := range benorMutantReproducers {
		mutant := &models.BenOr{CoinBias: r.bias}
		if res := mutant.Run(r.sc); !res.Failed {
			t.Errorf("pinned reproducer no longer fails under coin bias %+d:\n%s", r.bias, r.sc.GoLiteral())
		}
		sound := &models.BenOr{}
		if res := sound.Run(r.sc); res.Failed {
			scenario.ReportScenariof(t, r.sc,
				"pinned reproducer fails under sound Ben-Or: %s", res.Reason)
		}
	}
}
