package fd

import (
	"testing"

	"distbasics/internal/amp"
)

// buildOmegaFromS runs one ◇S detector per process; its Leader — the
// smallest id it trusts — is the Ω reduction under test.
func buildOmegaFromS(n int, opts ...amp.SimOption) (*amp.Sim, []*EventuallyStrong) {
	dets := make([]*EventuallyStrong, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		dets[i] = NewEventuallyStrong(n)
		procs[i] = dets[i]
	}
	return amp.NewSim(procs, opts...), dets
}

// TestOmegaFromDiamondS: the classical reduction — smallest trusted id —
// yields eventual leadership under partial synchrony, surviving the
// crash of the first leader.
func TestOmegaFromDiamondS(t *testing.T) {
	const n, gst = 4, 300
	sim, probes := buildOmegaFromS(n,
		amp.WithSeed(8),
		amp.WithDelay(amp.GSTDelay{GST: gst, BeforeMin: 1, BeforeMax: 30, AfterMin: 1, AfterMax: 4}))
	sim.CrashAt(0, 800) // p1 leads after stabilization, then crashes
	sim.Run(60_000)

	leaders := map[int]bool{}
	for i := 1; i < n; i++ {
		tau, leader := probes[i].StabilizationTime()
		if leader < 0 {
			t.Fatalf("probe %d never observed a leader", i)
		}
		leaders[leader] = true
		if tau > 40_000 {
			t.Fatalf("probe %d still changing leaders at t=%d", i, tau)
		}
	}
	if len(leaders) != 1 {
		t.Fatalf("correct processes disagree on the final leader: %v", leaders)
	}
	for l := range leaders {
		if l == 0 || sim.Crashed(l) {
			t.Fatalf("final leader %d is crashed", l)
		}
	}
}

// TestDiamondSWeakAccuracy: after stabilization some correct process is
// trusted by every correct process — ◇S's defining property (here the
// witness is the smallest correct id, since ◇P stabilizes fully).
func TestDiamondSWeakAccuracy(t *testing.T) {
	const n = 5
	sim, probes := buildOmegaFromS(n,
		amp.WithSeed(2),
		amp.WithDelay(amp.GSTDelay{GST: 200, BeforeMin: 1, BeforeMax: 25, AfterMin: 1, AfterMax: 4}))
	sim.CrashAt(1, 50)
	sim.Run(40_000)

	witness := -1
	for cand := 0; cand < n; cand++ {
		if sim.Crashed(cand) {
			continue
		}
		trustedByAll := true
		for i := 0; i < n; i++ {
			if sim.Crashed(i) {
				continue
			}
			if probes[i].Suspects()[cand] {
				trustedByAll = false
				break
			}
		}
		if trustedByAll {
			witness = cand
			break
		}
	}
	if witness < 0 {
		t.Fatal("no correct process is trusted by all correct processes (◇S accuracy violated after stabilization)")
	}
}

// TestDiamondSCompleteness: crashed processes end up suspected.
func TestDiamondSCompleteness(t *testing.T) {
	const n = 4
	sim, probes := buildOmegaFromS(n, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim.CrashAt(2, 100)
	sim.Run(10_000)
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		if !probes[i].Suspects()[2] {
			t.Fatalf("probe %d does not suspect the crashed process", i)
		}
	}
}

func TestTrustedAllSuspected(t *testing.T) {
	d := NewEventuallyStrong(2)
	// Force the everyone-suspected transient by hand.
	d.suspected = []bool{true, true}
	if got := d.Trusted(); got != -1 {
		t.Fatalf("Trusted = %d, want -1 when all are suspected", got)
	}
}

func TestOmegaFromSuspectsNoRecords(t *testing.T) {
	if at, l := NewEventuallyStrong(3).StabilizationTime(); at != 0 || l != 0 {
		t.Fatalf("never-started Ω = (%d, %d), want (0, 0)", at, l)
	}
}
