package flp

import (
	"testing"
)

// TestWaitAllNoCrashSolvesConsensus: with a crash budget of zero, the
// wait-for-all protocol decides min(I) in every schedule — consensus is
// trivial in a reliable asynchronous system (§2.4's centralized
// argument).
func TestWaitAllNoCrashSolvesConsensus(t *testing.T) {
	for n := 2; n <= 3; n++ {
		for bits := 0; bits < 1<<uint(n); bits++ {
			inputs := make([]int, n)
			min := 1
			for i := range inputs {
				inputs[i] = (bits >> uint(i)) & 1
				if inputs[i] == 0 {
					min = 0
				}
			}
			rep := Explore(WaitAll{Procs: n}, inputs, Options{MaxCrashes: 0})
			if rep.AgreementViolation != "" {
				t.Fatalf("n=%d inputs=%v: unexpected agreement violation: %s", n, inputs, rep.AgreementViolation)
			}
			if rep.TerminationViolation != "" {
				t.Fatalf("n=%d inputs=%v: unexpected termination violation: %s", n, inputs, rep.TerminationViolation)
			}
			if !rep.Decided[min] || rep.Decided[1-min] {
				t.Fatalf("n=%d inputs=%v: decided set %v, want exactly {%d}", n, inputs, rep.Decided, min)
			}
		}
	}
}

// TestWaitAllLosesTermination: one crash suffices to leave correct
// processes waiting forever — the first horn of the FLP dilemma.
func TestWaitAllLosesTermination(t *testing.T) {
	rep := Explore(WaitAll{Procs: 3}, []int{0, 1, 1}, Options{MaxCrashes: 1})
	if rep.TerminationViolation == "" {
		t.Fatal("WaitAll must lose termination under one crash")
	}
	if rep.AgreementViolation != "" {
		t.Fatalf("WaitAll must never violate agreement, got: %s", rep.AgreementViolation)
	}
}

// TestWaitMajorityLosesAgreement: deciding after a majority keeps
// termination but exhaustive search finds an agreement violation — the
// second horn.
func TestWaitMajorityLosesAgreement(t *testing.T) {
	rep := Explore(WaitMajority{Procs: 3}, []int{0, 1, 1}, Options{MaxCrashes: 1})
	if rep.AgreementViolation == "" {
		t.Fatal("WaitMajority must violate agreement under some schedule")
	}
}

// TestWaitMajorityAgreementViolationNeedsNoCrash: the violation is a
// pure asynchrony artifact — it exists even with zero crashes, because
// different processes can assemble different majorities.
func TestWaitMajorityAgreementViolationNeedsNoCrash(t *testing.T) {
	rep := Explore(WaitMajority{Procs: 3}, []int{0, 1, 1}, Options{MaxCrashes: 0})
	if rep.AgreementViolation == "" {
		t.Fatal("different majorities already disagree without crashes")
	}
}

// TestBivalentInitialConfigurationExists is FLP Lemma 2 made concrete:
// for the majority protocol with n=3, the all-same input vectors are
// univalent while some mixed vector is bivalent.
func TestBivalentInitialConfigurationExists(t *testing.T) {
	vals := InitialValences(WaitMajority{Procs: 3}, Options{MaxCrashes: 1})
	if vals["000"] != ZeroValent {
		t.Errorf("inputs 000: valence %v, want 0-valent", vals["000"])
	}
	if vals["111"] != OneValent {
		t.Errorf("inputs 111: valence %v, want 1-valent", vals["111"])
	}
	bivalentSeen := false
	for label, v := range vals {
		if v == Bivalent {
			bivalentSeen = true
			t.Logf("bivalent initial configuration: inputs %s", label)
		}
	}
	if !bivalentSeen {
		t.Error("a bivalent initial configuration must exist")
	}
}

// TestWaitAllBivalenceUnderCrash: even the safe wait-for-all protocol
// has bivalent-looking reachable decisions across crash schedules for
// adjacent input vectors... it does not: a crash only blocks
// termination. Its mixed vectors stay univalent, which contrasts with
// WaitMajority and shows valence depends on the protocol, not just the
// inputs.
func TestWaitAllMixedVectorStaysUnivalent(t *testing.T) {
	rep := Explore(WaitAll{Procs: 2}, []int{0, 1}, Options{MaxCrashes: 1})
	if got := rep.Valence(); got != ZeroValent {
		t.Errorf("WaitAll (0,1) valence = %v, want 0-valent (min decides)", got)
	}
}

// TestEveryProtocolLosesSomething sweeps both protocols at n=2..3 over
// every input vector with one crash: in every case the protocol loses
// termination or (somewhere) agreement — no candidate survives both
// checks on mixed inputs. This is E16's dilemma table.
func TestEveryProtocolLosesSomething(t *testing.T) {
	type cand struct {
		name  string
		proto Protocol
	}
	for _, n := range []int{2, 3} {
		cands := []cand{
			{"wait-all", WaitAll{Procs: n}},
			{"wait-majority", WaitMajority{Procs: n}},
		}
		for _, c := range cands {
			lostTermination := false
			lostAgreement := false
			for bits := 0; bits < 1<<uint(n); bits++ {
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (bits >> uint(i)) & 1
				}
				rep := Explore(c.proto, inputs, Options{MaxCrashes: 1})
				if rep.TerminationViolation != "" {
					lostTermination = true
				}
				if rep.AgreementViolation != "" {
					lostAgreement = true
				}
			}
			if !lostTermination && !lostAgreement {
				t.Errorf("n=%d %s: exhaustive search found no violation — FLP says that cannot happen", n, c.name)
			}
		}
	}
}

func TestValenceString(t *testing.T) {
	tests := []struct {
		v    Valence
		want string
	}{
		{ZeroValent, "0-valent"},
		{OneValent, "1-valent"},
		{Bivalent, "bivalent"},
		{Unknown, "undecided"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.v), got, tt.want)
		}
	}
}

func TestExploreCountsConfigs(t *testing.T) {
	rep := Explore(WaitAll{Procs: 2}, []int{0, 1}, Options{MaxCrashes: 1})
	if rep.Configs <= 0 {
		t.Error("exploration must visit configurations")
	}
	if rep.Truncated {
		t.Error("tiny exploration must not truncate")
	}
}

func TestExploreTruncation(t *testing.T) {
	rep := Explore(WaitMajority{Procs: 3}, []int{0, 1, 1}, Options{MaxCrashes: 1, MaxConfigs: 3})
	if !rep.Truncated {
		t.Error("MaxConfigs=3 must truncate")
	}
}

func TestExplorePanicsOnBadInputLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Explore must panic on input/N mismatch")
		}
	}()
	Explore(WaitAll{Procs: 3}, []int{0, 1}, Options{})
}

// TestFullSearchPutsNothingToSleep: with DPOR off the sleep-set search
// is full enumeration — every mask stored in the seen-table is empty and
// Configs is the table's size.
func TestFullSearchPutsNothingToSleep(t *testing.T) {
	e := newExplorer(WaitMajority{Procs: 3}, []int{0, 1, 1}, Options{MaxCrashes: 1})
	e.visit(sleepMask{})
	configs := e.seen.configs()
	for _, mask := range e.seen.m {
		if mask != (sleepMask{}) {
			t.Fatalf("stored mask %+v, want empty", mask)
		}
	}
	if size := len(e.seen.m); configs != size {
		t.Errorf("Configs=%d, table holds %d", configs, size)
	}
	// 843 is the seed engine's Configs, recorded before it was deleted.
	if configs != 843 {
		t.Errorf("Configs=%d, seed engine 843", configs)
	}
}
