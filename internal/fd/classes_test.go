package fd

import (
	"testing"

	"distbasics/internal/amp"
)

func buildPerfect(n int, opts ...amp.SimOption) (*amp.Sim, []*Perfect, []*amp.Stack) {
	dets := make([]*Perfect, n)
	stacks := make([]*amp.Stack, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		dets[i] = NewPerfect(n)
		stacks[i] = amp.NewStack(dets[i])
		procs[i] = stacks[i]
	}
	return amp.NewSim(procs, opts...), dets, stacks
}

// TestPerfectStrongAccuracy: under the assumed synchrony bound, P never
// suspects a live process.
func TestPerfectStrongAccuracy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim, dets, _ := buildPerfect(5,
			amp.WithSeed(seed), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 8}))
		sim.Run(3_000)
		for i, d := range dets {
			if d.FalseSuspicions() != 0 {
				t.Fatalf("seed %d: detector %d committed %d false suspicions", seed, i, d.FalseSuspicions())
			}
			for j, s := range d.Suspects() {
				if s {
					t.Fatalf("seed %d: detector %d suspects live process %d", seed, i, j)
				}
			}
		}
	}
}

// TestPerfectStrongCompleteness: every crashed process is eventually
// suspected by every correct process.
func TestPerfectStrongCompleteness(t *testing.T) {
	sim, dets, _ := buildPerfect(5, amp.WithDelay(amp.FixedDelay{D: 3}))
	sim.CrashAt(2, 100)
	sim.CrashAt(4, 200)
	sim.Run(3_000)
	for i, d := range dets {
		if i == 2 || i == 4 {
			continue
		}
		s := d.Suspects()
		if !s[2] || !s[4] {
			t.Fatalf("detector %d misses a crashed process: %v", i, s)
		}
		if s[0] || s[1] || s[3] {
			t.Fatalf("detector %d suspects a live process: %v", i, s)
		}
	}
}

// TestPerfectBreaksWithoutSynchrony: if real delays exceed the assumed
// bound, P's accuracy fails — the §5.3 reason asynchronous systems need
// eventual detectors instead.
func TestPerfectBreaksWithoutSynchrony(t *testing.T) {
	sim, dets, _ := buildPerfect(4,
		amp.WithSeed(1), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 60}))
	sim.Run(5_000)
	total := 0
	for i, d := range dets {
		total += d.FalseSuspicions()
		// P's rule: being wrong teaches it nothing (adapting is ◇P's row).
		for j, to := range d.timeout {
			if to != d.InitialTimeout {
				t.Fatalf("detector %d moved its timeout for %d to %d; P's is fixed at %d", i, j, to, d.InitialTimeout)
			}
		}
	}
	if total == 0 {
		t.Fatal("delays above the bound must produce false suspicions (the accuracy assumption is load-bearing)")
	}
}

func buildEvP(n int, opts ...amp.SimOption) (*amp.Sim, []*EventuallyPerfect) {
	dets := make([]*EventuallyPerfect, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		dets[i] = NewEventuallyPerfect(n)
		procs[i] = amp.NewStack(dets[i])
	}
	return amp.NewSim(procs, opts...), dets
}

// TestEventuallyPerfectConverges: under partial synchrony, ◇P may
// suspect falsely at first, but the adaptive timeout makes false
// suspicions stop; afterwards only crashed processes are suspected.
func TestEventuallyPerfectConverges(t *testing.T) {
	const gst = 400
	sim, dets := buildEvP(4,
		amp.WithSeed(5),
		amp.WithDelay(amp.GSTDelay{GST: gst, BeforeMin: 1, BeforeMax: 40, AfterMin: 1, AfterMax: 5}))
	sim.CrashAt(3, 1_000)
	sim.Run(40_000)

	for i, d := range dets {
		if i == 3 {
			continue
		}
		_, last := d.FalseSuspicions()
		// The last false suspicion must not be arbitrarily late: after
		// timeouts adapt past the post-GST bound, accuracy holds. Allow
		// a generous margin beyond GST for the doubling to catch up.
		if last > 20_000 {
			t.Fatalf("detector %d still false-suspecting at t=%d (no convergence)", i, last)
		}
		s := d.Suspects()
		if !s[3] {
			t.Fatalf("detector %d misses the crashed process (completeness)", i)
		}
		for j := 0; j < 3; j++ {
			if j != i && s[j] {
				t.Fatalf("detector %d suspects live process %d after stabilization", i, j)
			}
		}
	}
}

// TestEventuallyPerfectAdaptsTimeouts: false suspicions double the
// timeout, so a chaotic pre-GST phase forces timeouts up.
func TestEventuallyPerfectAdaptsTimeouts(t *testing.T) {
	sim, dets := buildEvP(3,
		amp.WithSeed(9),
		amp.WithDelay(amp.GSTDelay{GST: 600, BeforeMin: 10, BeforeMax: 50, AfterMin: 1, AfterMax: 4}))
	sim.Run(20_000)
	grew := false
	for _, d := range dets {
		n, _ := d.FalseSuspicions()
		if n > 0 {
			grew = true
		}
	}
	if !grew {
		t.Skip("pre-GST chaos produced no false suspicion under this seed; nothing to adapt")
	}
	for i, d := range dets {
		for j, to := range d.timeout {
			if i != j && to < d.InitialTimeout {
				t.Fatalf("detector %d timeout[%d] shrank to %d", i, j, to)
			}
		}
	}
}

// TestDetectorClassesShareAStack: P, ◇P and Ω coexist on one process
// (each in its own Stack slot, which namespaces messages and timers).
func TestDetectorClassesShareAStack(t *testing.T) {
	const n = 3
	omegas := make([]*Detector, n)
	perfects := make([]*Perfect, n)
	procs := make([]amp.Process, n)
	for i := 0; i < n; i++ {
		omegas[i] = NewDetector(n)
		perfects[i] = NewPerfect(n)
		procs[i] = amp.NewStack(omegas[i], perfects[i])
	}
	sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim.CrashAt(0, 150)
	sim.Run(5_000)

	for i := 1; i < n; i++ {
		if omegas[i].Leader() == 0 {
			t.Fatalf("Ω on process %d still trusts the crashed leader", i)
		}
		if !perfects[i].Suspects()[0] {
			t.Fatalf("P on process %d misses the crashed process", i)
		}
		if perfects[i].FalseSuspicions() != 0 {
			t.Fatalf("P on process %d false-suspected under synchrony", i)
		}
	}
}
