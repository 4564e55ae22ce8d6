package flp

import (
	"fmt"
	"math/bits"
	"testing"
)

// fenceLottery is a seeded flooding protocol for the DPOR fence (a
// sibling of the scenario harness's lotteryProto, re-declared here
// because the models package imports flp): flood the input, decide on a
// seed-derived lottery over the heard multiset once Threshold processes
// have been heard from. Different seeds hit different valences and
// violation profiles.
type fenceLottery struct {
	Procs     int
	Threshold int
	Seed      uint64
}

type fenceLotState struct {
	Heard   int
	Vals    int
	Decided int
}

func fenceSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p fenceLottery) N() int { return p.Procs }

func (p fenceLottery) Initial(pid int, input int) (State, []Outgoing) {
	s := fenceLotState{Heard: 1 << uint(pid), Vals: input << uint(pid), Decided: -1}
	var outs []Outgoing
	for i := 0; i < p.Procs; i++ {
		if i != pid {
			outs = append(outs, Outgoing{To: i, Body: input})
		}
	}
	return p.maybeDecide(s), outs
}

func (p fenceLottery) Deliver(_ int, st State, from int, body any) (State, []Outgoing) {
	s := st.(fenceLotState)
	if s.Decided >= 0 {
		return s, nil
	}
	s.Heard |= 1 << uint(from)
	if body.(int) == 1 {
		s.Vals |= 1 << uint(from)
	}
	return p.maybeDecide(s), nil
}

func (p fenceLottery) maybeDecide(s fenceLotState) fenceLotState {
	if s.Decided < 0 && bits.OnesCount(uint(s.Heard)) >= p.Threshold {
		s.Decided = int(fenceSplitmix(p.Seed^uint64(s.Heard)<<20^uint64(s.Vals)) & 1)
	}
	return s
}

func (p fenceLottery) Decision(st State) (int, bool) {
	s := st.(fenceLotState)
	return s.Decided, s.Decided >= 0
}

// fenceFirstHeard decides on the FIRST value received — an
// order-sensitive protocol (unlike the flooding candidates, whose
// states are heard-sets) that distinguishes message orderings the
// sleep-set machinery must not conflate.
type fenceFirstHeard struct{ Procs int }

func (p fenceFirstHeard) N() int { return p.Procs }

func (p fenceFirstHeard) Initial(pid int, input int) (State, []Outgoing) {
	var outs []Outgoing
	for i := 0; i < p.Procs; i++ {
		if i != pid {
			outs = append(outs, Outgoing{To: i, Body: input})
		}
	}
	return fenceLotState{Decided: -1}, outs
}

func (p fenceFirstHeard) Deliver(_ int, st State, from int, body any) (State, []Outgoing) {
	s := st.(fenceLotState)
	if s.Decided < 0 {
		s.Decided = body.(int)
	}
	return s, nil
}

func (p fenceFirstHeard) Decision(st State) (int, bool) {
	s := st.(fenceLotState)
	return s.Decided, s.Decided >= 0
}

// fenceEcho is a ring protocol with CAUSAL sends: receiving a message
// mutates the accumulator and forwards a derived value to the next
// process, up to a hop budget, deciding after two receptions. Unlike the
// flooding candidates (whose entire message pool exists at wake-up),
// here later messages exist only because earlier ones were delivered —
// the cross-receiver wake rules and the revisit covered-check carry real
// weight, which is what the mutation-verification needs.
type fenceEcho struct {
	Procs int
	Hops  int
	Seed  uint64
}

type echoMsg struct{ Hop, Val int }

type echoState struct {
	Acc, Got, Decided int
}

func (p fenceEcho) N() int { return p.Procs }

func (p fenceEcho) mix(a, v int) int {
	return int(fenceSplitmix(p.Seed^uint64(a*5+v*3+1)) % 8)
}

func (p fenceEcho) Initial(pid int, input int) (State, []Outgoing) {
	return echoState{Acc: input, Decided: -1},
		[]Outgoing{{To: (pid + 1) % p.Procs, Body: echoMsg{Hop: 0, Val: input}}}
}

func (p fenceEcho) Deliver(pid int, st State, from int, body any) (State, []Outgoing) {
	s := st.(echoState)
	m := body.(echoMsg)
	s.Acc = p.mix(s.Acc, m.Val)
	s.Got++
	if s.Decided < 0 && s.Got >= 2 {
		s.Decided = s.Acc & 1
	}
	var outs []Outgoing
	if m.Hop < p.Hops {
		outs = []Outgoing{{To: (pid + 1) % p.Procs, Body: echoMsg{Hop: m.Hop + 1, Val: s.Acc}}}
	}
	return s, outs
}

func (p fenceEcho) Decision(st State) (int, bool) {
	s := st.(echoState)
	return s.Decided, s.Decided >= 0
}

func flpDigest(r Report) string {
	return fmt.Sprintf("decided0=%v decided1=%v valence=%v agreement=%v termination=%v truncated=%v",
		r.Decided[0], r.Decided[1], r.Valence(),
		r.AgreementViolation != "", r.TerminationViolation != "", r.Truncated)
}

// flpFenceCases enumerates the fence workload: both shipped candidates
// and a spread of lottery protocols, across inputs and crash budgets.
func flpFenceCases(yield func(label string, proto Protocol, inputs []int, crashes int)) {
	for _, n := range []int{2, 3} {
		for _, proto := range []Protocol{WaitAll{Procs: n}, WaitMajority{Procs: n}} {
			for crashes := 0; crashes <= 2; crashes++ {
				for bitsv := 0; bitsv < 1<<uint(n); bitsv++ {
					inputs := make([]int, n)
					for i := range inputs {
						inputs[i] = (bitsv >> uint(i)) & 1
					}
					yield(fmt.Sprintf("%T n=%d crashes=%d inputs=%v", proto, n, crashes, inputs),
						proto, inputs, crashes)
				}
			}
		}
	}
	for _, n := range []int{2, 3} {
		for crashes := 0; crashes <= 1; crashes++ {
			for bitsv := 0; bitsv < 1<<uint(n); bitsv++ {
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (bitsv >> uint(i)) & 1
				}
				yield(fmt.Sprintf("firstHeard n=%d crashes=%d inputs=%v", n, crashes, inputs),
					fenceFirstHeard{Procs: n}, inputs, crashes)
			}
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		n := 2 + int(seed%2)
		proto := fenceEcho{Procs: n, Hops: 2 + int(seed%3), Seed: fenceSplitmix(seed * 31)}
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(fenceSplitmix(seed*13+uint64(i)) & 1)
		}
		yield(fmt.Sprintf("echo seed=%d n=%d hops=%d crashes=%d inputs=%v", seed, n, proto.Hops, seed%2, inputs),
			proto, inputs, int(seed%2))
	}
	for seed := uint64(1); seed <= 30; seed++ {
		n := 2 + int(seed%2)
		proto := fenceLottery{Procs: n, Threshold: 1 + int(seed)%n, Seed: fenceSplitmix(seed)}
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(fenceSplitmix(seed*7+uint64(i)) & 1)
		}
		crashes := int(seed % 3)
		yield(fmt.Sprintf("lottery seed=%d n=%d threshold=%d crashes=%d inputs=%v", seed, n, proto.Threshold, crashes, inputs),
			proto, inputs, crashes)
	}
}

// runFLPDPORFence compares full enumeration against DPOR on every fence
// case. With wantAgree it fails on any divergence;
// otherwise it returns how many cases diverged (for mutation
// verification).
func runFLPDPORFence(t *testing.T, wantAgree bool) (disagreed int) {
	t.Helper()
	var fullConfigs, dporConfigs int
	for _, c := range collectFLPFenceCases() {
		full := Explore(c.proto, c.inputs, Options{MaxCrashes: c.crashes})
		dpor := Explore(c.proto, c.inputs, Options{MaxCrashes: c.crashes, DPOR: true})

		// dpor<=full is a theorem of the SOUND relation. Under the mutant it
		// is just one more way for the fence to catch it.
		if dpor.Configs > full.Configs {
			if wantAgree {
				t.Fatalf("%s: DPOR visited more configs (%d) than the full search (%d)", c.label, dpor.Configs, full.Configs)
			}
			disagreed++
			continue
		}
		if flpDigest(dpor) != flpDigest(full) {
			disagreed++
			if wantAgree {
				t.Fatalf("%s: DPOR diverged from full search:\n  full: %s configs=%d\n  dpor: %s configs=%d",
					c.label, flpDigest(full), full.Configs, flpDigest(dpor), dpor.Configs)
			}
			continue
		}
		fullConfigs += full.Configs
		dporConfigs += dpor.Configs
	}
	if wantAgree {
		if dporConfigs >= fullConfigs {
			t.Fatalf("DPOR achieved no reduction: %d vs %d configs", dporConfigs, fullConfigs)
		}
		t.Logf("fence: full=%d configs, dpor=%d configs (%.1fx reduction)",
			fullConfigs, dporConfigs, float64(fullConfigs)/float64(dporConfigs))
	}
	return disagreed
}

type flpFenceCase struct {
	label   string
	proto   Protocol
	inputs  []int
	crashes int
}

func collectFLPFenceCases() []flpFenceCase {
	var out []flpFenceCase
	flpFenceCases(func(label string, proto Protocol, inputs []int, crashes int) {
		out = append(out, flpFenceCase{label, proto, inputs, crashes})
	})
	return out
}

// TestFLPDPORDifferentialFence: DPOR must agree with the full search on
// Decided sets, valence, and violation presence, over no more
// configurations, on every fence case.
func TestFLPDPORDifferentialFence(t *testing.T) {
	runFLPDPORFence(t, true)
}

// TestWaitMajorityN4DPOR pins the acceptance workload the reduction was
// built for: a wait-majority n=4 instance with one crash, exhausted
// under DPOR at a third of the full search's configurations — both
// counts pinned, digests required to agree.
func TestWaitMajorityN4DPOR(t *testing.T) {
	inputs := []int{0, 1, 0, 1}
	dpor := Explore(WaitMajority{Procs: 4}, inputs, Options{MaxCrashes: 1, DPOR: true})
	full := Explore(WaitMajority{Procs: 4}, inputs, Options{MaxCrashes: 1})

	if flpDigest(dpor) != flpDigest(full) {
		t.Fatalf("DPOR digest diverged from full search:\n  full: %s\n  dpor: %s",
			flpDigest(full), flpDigest(dpor))
	}
	const goldenDPOR, goldenFull = 39425, 118357
	if dpor.Configs != goldenDPOR {
		t.Errorf("DPOR configs = %d, golden %d", dpor.Configs, goldenDPOR)
	}
	if full.Configs != goldenFull {
		t.Errorf("full configs = %d, golden %d", full.Configs, goldenFull)
	}
	if dpor.Truncated || full.Truncated {
		t.Error("n=4 wait-majority search truncated — no longer exhaustive")
	}
	t.Logf("wait-majority n=4, 1 crash: full %d configs, DPOR %d (%.1fx)",
		full.Configs, dpor.Configs, float64(full.Configs)/float64(dpor.Configs))
}

// TestFLPDPORFenceCatchesWrongDependence mutation-verifies the fence:
// a deliberately-wrong dependence relation that treats two deliveries
// to the same process as commuting (exploring a single delivery per
// receiver group) must make the pruned search visibly diverge from the
// full enumeration on at least one case.
func TestFLPDPORFenceCatchesWrongDependence(t *testing.T) {
	dporSameReceiverDep = false
	defer func() { dporSameReceiverDep = true }()
	if disagreed := runFLPDPORFence(t, false); disagreed == 0 {
		t.Fatal("fence did not catch the wrong dependence relation")
	}
}
