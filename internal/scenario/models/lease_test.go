package models_test

import (
	"fmt"
	"strings"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// leaseSweepSeeds is how many seeds each (margin, skew) cell of the
// margin sweep runs.
const leaseSweepSeeds = 40

// leaseClaim is the clock-rate skew the Host's margin is claimed to
// cover: the registered lease model draws clock windows up to it.
const leaseClaim = 10

// TestMutationLeaseMarginZeroIsCaughtAndShrunk: with no margin, a
// holder whose clock runs 5% slow believes its lease past its
// granters' promises, and a rival's write lands while it still serves
// reads locally. The linearizability oracle must see the stale read,
// and the shrinker must keep at most the fault that silences the
// holder, a second cut and the clock window.
func TestMutationLeaseMarginZeroIsCaughtAndShrunk(t *testing.T) {
	shrunk := findAndShrink(t, &models.Lease{Margin: func(amp.Time) amp.Time { return 0 }, Skew: 5}, 200)
	clock := false
	for _, f := range shrunk.Faults {
		clock = clock || (f.Kind == scenario.FaultClock && f.Pct <= -5)
	}
	if !clock {
		t.Errorf("shrunk reproducer fails without a clock window of at least 5%%:\n%s", shrunk.GoLiteral())
	}
	if res := (&models.Lease{}).Run(shrunk); res.Failed {
		scenario.ReportScenariof(t, shrunk, "the mutant's reproducer fails under the shipped margin too: %s", res.Reason)
	}
}

// TestPausedLeaderKeepsItsOwnDecide replays lease seed 7988: leader 0
// broadcasts a put's decide in the tick before a pause (1600–1820), the
// followers apply it and the put returns, and the leader's own copy
// arrives inside the pause. The daemons' Runtime handles a self-send in
// the sending turn, so amp.Sim delivers it at the recovery, before
// anything else: otherwise the resumed leader, still holding its lease,
// serves the old value to its first read.
func TestPausedLeaderKeepsItsOwnDecide(t *testing.T) {
	m := &models.Lease{}
	if res := m.Run(m.Generate(7988)); res.Failed {
		scenario.Reportf(t, m.Name(), 7988, "%s", res.Reason)
	}
}

// TestLeaseMarginSweep publishes the margin: for each candidate margin
// it finds the largest clock-rate skew (the holder's clock that much
// slow, the worst direction) at which every one of leaseSweepSeeds
// seeds stays linearizable, scanning up one percent at a time to the
// first skew that fails. It logs the table the hostLeaseMargin comment
// quotes and fails unless the shipped margin covers leaseClaim.
func TestLeaseMarginSweep(t *testing.T) {
	margins := []struct {
		name   string
		margin func(ttl amp.Time) amp.Time
	}{
		{"0", func(amp.Time) amp.Time { return 0 }},
		{"TTL/20", func(ttl amp.Time) amp.Time { return ttl / 20 }},
		{"TTL/10+2 (shipped)", nil},
		{"TTL/5", func(ttl amp.Time) amp.Time { return ttl / 5 }},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "largest safe skew over %d seeds:", leaseSweepSeeds)
	held := make([]int, len(margins))
	for i, mg := range margins {
		for skew := 1; skew <= 50 && held[i] == skew-1; skew++ {
			m := &models.Lease{Margin: mg.margin, Skew: skew}
			ok := true
			for seed := uint64(1); seed <= leaseSweepSeeds && ok; seed++ {
				ok = !m.Run(m.Generate(seed)).Failed
			}
			if ok {
				held[i] = skew
			}
		}
		fmt.Fprintf(&table, "\n  margin %-20s %2d%%", mg.name, held[i])
	}
	t.Log(table.String())
	if held[2] < leaseClaim {
		t.Errorf("the shipped margin holds only to %d%% skew, want at least the claimed %d%%", held[2], leaseClaim)
	}
	for i := 1; i < len(held); i++ {
		if held[i] < held[i-1] {
			t.Errorf("a larger margin (%s) covers less skew than %s: %v", margins[i].name, margins[i-1].name, held)
		}
	}
}
