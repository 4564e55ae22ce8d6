package mpcons_test

// Property tests for the consensus algorithms under the simulator's drop
// adversaries (deterministic seeds throughout):
//
//   - Bounded drops ⇒ decision. For Ben-Or, "bounded" means the loss is
//     confined to at most t processes (amp.Isolate — crash-equivalent to
//     the rest of the system), since Ben-Or has no retransmission and
//     cannot survive arbitrary loss. For Synod, a lossy *window* suffices:
//     the leader's retry timer re-runs ballots after the loss stops.
//   - All decisions agree (and are valid), under any loss whatsoever —
//     indulgence: safety holds even when the adversary exceeds the bound,
//     in which case termination is simply not owed.

import (
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/fd"
	"distbasics/internal/mpcons"
)

// benOrCluster builds n Ben-Or processes with inputs i%2 and returns the
// decision slots.
func benOrCluster(n int) ([]amp.Process, []*mpcons.BenOr, []any) {
	decs := make([]any, n)
	bos := make([]*mpcons.BenOr, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		i := i
		bos[i] = mpcons.NewBenOr(i%2, func(v any, _ amp.Time) { decs[i] = v })
		procs[i] = amp.NewStack(bos[i])
	}
	return procs, bos, decs
}

func checkAgreementValidity(t *testing.T, seed int64, decs []any) (deciders int) {
	t.Helper()
	var common any
	for i, d := range decs {
		if d == nil {
			continue
		}
		deciders++
		if v, ok := d.(int); !ok || (v != 0 && v != 1) {
			t.Errorf("seed %d: process %d decided invalid value %v", seed, i, d)
		}
		if common == nil {
			common = d
		} else if common != d {
			t.Errorf("seed %d: agreement violated: %v vs %v", seed, common, d)
		}
	}
	return deciders
}

// TestBenOrTerminatesUnderBoundedDrops isolates at most t processes from
// a random point onward — every message to or from a victim is dropped
// forever, a loss pattern crash-equivalent for the rest — and requires
// every non-victim to decide, with global agreement.
func TestBenOrTerminatesUnderBoundedDrops(t *testing.T) {
	const n = 5 // t = 2
	for seed := int64(0); seed < 25; seed++ {
		victims := []int{int(seed) % n}
		if seed%2 == 0 {
			victims = append(victims, (int(seed)+2)%n)
		}
		isolateFrom := amp.Time(10 * (seed % 7))
		procs, _, decs := benOrCluster(n)
		sim := amp.NewSim(procs,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 10}),
			amp.WithAdversary(amp.Isolate(isolateFrom, 0, victims...)))
		sim.Run(3_000_000)

		isVictim := map[int]bool{}
		for _, v := range victims {
			isVictim[v] = true
		}
		for i := 0; i < n; i++ {
			if !isVictim[i] && decs[i] == nil {
				t.Errorf("seed %d: connected process %d did not decide under bounded drops (victims %v from t=%d)",
					seed, i, victims, isolateFrom)
			}
		}
		checkAgreementValidity(t, seed, decs)
	}
}

// TestBenOrSafeUnderUnboundedDrops hammers the network with 30% uniform
// loss forever — far beyond what Ben-Or tolerates for liveness — and
// requires that whoever still decides, agrees.
func TestBenOrSafeUnderUnboundedDrops(t *testing.T) {
	const n = 5
	anyDecided := 0
	for seed := int64(0); seed < 15; seed++ {
		procs, _, decs := benOrCluster(n)
		sim := amp.NewSim(procs,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 6}),
			amp.WithAdversary(amp.NewDropWindow(seed*1000+7, 0.3, 0, 0)))
		sim.Run(200_000)
		anyDecided += checkAgreementValidity(t, seed, decs)
	}
	// The property is vacuous if nobody ever decides across all seeds.
	if anyDecided == 0 {
		t.Error("no process decided in any seed; the safety assertion never bit")
	}
}

// synodCluster builds the E13-style stack: Ω detector + Synod per process.
func synodCluster(n int) ([]amp.Process, []any) {
	decs := make([]any, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		i := i
		det := fd.NewDetector(n)
		syn := mpcons.NewSynod(i*10, det, func(v any, _ amp.Time) { decs[i] = v })
		procs[i] = amp.NewStack(det, syn)
	}
	return procs, decs
}

// TestSynodDecidesAfterLossyWindow drops 40% of all messages during
// [0, 600) and nothing afterwards: the drops falsify heartbeats and kill
// ballots, but the retry timer plus Ω's post-window stabilization must
// still drive every process to an agreed, valid decision.
func TestSynodDecidesAfterLossyWindow(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 15; seed++ {
		procs, decs := synodCluster(n)
		sim := amp.NewSim(procs,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 5}),
			amp.WithAdversary(amp.NewDropWindow(seed*77+3, 0.4, 0, 600)))
		sim.Run(300_000)

		var common any
		for i := 0; i < n; i++ {
			if decs[i] == nil {
				t.Errorf("seed %d: process %d undecided after the lossy window closed", seed, i)
				continue
			}
			if common == nil {
				common = decs[i]
			} else if common != decs[i] {
				t.Errorf("seed %d: agreement violated: %v vs %v", seed, common, decs[i])
			}
		}
		if common != nil {
			valid := false
			for i := 0; i < n; i++ {
				if common == i*10 {
					valid = true
				}
			}
			if !valid {
				t.Errorf("seed %d: decided %v, not any process's input", seed, common)
			}
		}
	}
}

// TestSynodSafeUnderPermanentDrops keeps a 30% loss rate forever:
// indulgence demands agreement and validity among whoever decides, with
// no termination owed.
func TestSynodSafeUnderPermanentDrops(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 10; seed++ {
		procs, decs := synodCluster(n)
		sim := amp.NewSim(procs,
			amp.WithSeed(seed),
			amp.WithDelay(amp.UniformDelay{Min: 1, Max: 5}),
			amp.WithAdversary(amp.NewDropWindow(seed*13+1, 0.3, 0, 0)))
		sim.Run(150_000)

		var common any
		for i := 0; i < n; i++ {
			if decs[i] == nil {
				continue
			}
			if common == nil {
				common = decs[i]
			} else if common != decs[i] {
				t.Errorf("seed %d: agreement violated under permanent drops: %v vs %v", seed, common, decs[i])
			}
		}
	}
}
