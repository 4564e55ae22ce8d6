package flp_test

// Frozen answers of the seed explorer (Sprintf keys, full clones),
// recorded while it ran beside the rebuilt search and agreed with it:
// every input vector of the shipped protocols with and without a crash,
// uncomparable message bodies, and large decision values. The seeded
// random sweep that compared the two engines is frozen in the flp
// model's digests (internal/scenario/models/testdata/digests.txt).

import (
	"fmt"
	"testing"

	"distbasics/internal/flp"
)

// reportDigest renders the Report fields the seed engine was compared
// on, as the flp model's trace renders them.
func reportDigest(r flp.Report) string {
	b := func(x bool) string {
		if x {
			return "1"
		}
		return "0"
	}
	return "decided=" + b(r.Decided[0]) + b(r.Decided[1]) +
		" valence=" + r.Valence().String() +
		" agreementViolated=" + b(r.AgreementViolation != "") +
		" terminationViolated=" + b(r.TerminationViolation != "") +
		" truncated=" + b(r.Truncated)
}

// shippedGoldens is the seed engine's (reportDigest, Configs) for every
// input vector of both shipped candidates at n = 2 and 3, with and
// without a crash.
var shippedGoldens = []struct {
	proto   flp.Protocol
	inputs  []int
	crashes int
	digest  string
	configs int
}{
	{flp.WaitAll{Procs: 2}, []int{0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitAll{Procs: 2}, []int{1, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitAll{Procs: 2}, []int{0, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitAll{Procs: 2}, []int{1, 1}, 0, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitAll{Procs: 2}, []int{0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitAll{Procs: 2}, []int{1, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitAll{Procs: 2}, []int{0, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitAll{Procs: 2}, []int{1, 1}, 1, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitMajority{Procs: 2}, []int{0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitMajority{Procs: 2}, []int{1, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitMajority{Procs: 2}, []int{0, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitMajority{Procs: 2}, []int{1, 1}, 0, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=0 truncated=0", 7},
	{flp.WaitMajority{Procs: 2}, []int{0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitMajority{Procs: 2}, []int{1, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitMajority{Procs: 2}, []int{0, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitMajority{Procs: 2}, []int{1, 1}, 1, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=1 truncated=0", 27},
	{flp.WaitAll{Procs: 3}, []int{0, 0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{1, 0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{0, 1, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{1, 1, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{0, 0, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{1, 0, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{0, 1, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{1, 1, 1}, 0, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
	{flp.WaitAll{Procs: 3}, []int{0, 0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{1, 0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{0, 1, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{1, 1, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{0, 0, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{1, 0, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{0, 1, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitAll{Procs: 3}, []int{1, 1, 1}, 1, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	{flp.WaitMajority{Procs: 3}, []int{0, 0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{1, 0, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{0, 1, 0}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{1, 1, 0}, 0, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{0, 0, 1}, 0, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{1, 0, 1}, 0, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, 0, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{1, 1, 1}, 0, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=0 truncated=0", 141},
	{flp.WaitMajority{Procs: 3}, []int{0, 0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{1, 0, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{0, 1, 0}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{1, 1, 0}, 1, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{0, 0, 1}, 1, "decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{1, 0, 1}, 1, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, 1, "decided=11 valence=bivalent agreementViolated=1 terminationViolated=0 truncated=0", 843},
	{flp.WaitMajority{Procs: 3}, []int{1, 1, 1}, 1, "decided=01 valence=1-valent agreementViolated=0 terminationViolated=0 truncated=0", 843},
}

func TestExploreMatchesLegacyOnShippedProtocols(t *testing.T) {
	for _, g := range shippedGoldens {
		got := flp.Explore(g.proto, g.inputs, flp.Options{MaxCrashes: g.crashes})
		if d := reportDigest(got); d != g.digest || got.Configs != g.configs {
			t.Errorf("%T n=%d crashes=%d inputs=%v: %s configs=%d, golden %s configs=%d",
				g.proto, g.proto.N(), g.crashes, g.inputs, d, got.Configs, g.digest, g.configs)
		}
	}
}

// TestExploreTruncationBothEngines pins the truncation contract on the
// full search and its reduction: the flag is set, and Configs is the
// budget exactly.
func TestExploreTruncationBothEngines(t *testing.T) {
	for _, dpor := range []bool{false, true} {
		rep := flp.Explore(flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1, MaxConfigs: 3, DPOR: dpor})
		if !rep.Truncated {
			t.Errorf("DPOR=%v: MaxConfigs=3 must truncate", dpor)
		}
		if rep.Configs != 3 {
			t.Errorf("DPOR=%v: Configs=%d under MaxConfigs=3, want 3", dpor, rep.Configs)
		}
	}
}

// sliceBodyProto wraps WaitAll but ships every body as an uncomparable
// []int — the seed engine's Sprintf keys handled such protocols, so the
// rebuilt interning must too (via its rendered-identity fallback).
type sliceBodyProto struct{ inner flp.WaitAll }

func (p sliceBodyProto) N() int { return p.inner.N() }

func (p sliceBodyProto) Initial(pid, input int) (flp.State, []flp.Outgoing) {
	s, outs := p.inner.Initial(pid, input)
	for i := range outs {
		outs[i].Body = []int{outs[i].Body.(int)}
	}
	return s, outs
}

func (p sliceBodyProto) Deliver(pid int, st flp.State, from int, body any) (flp.State, []flp.Outgoing) {
	s, outs := p.inner.Deliver(pid, st, from, body.([]int)[0])
	for i := range outs {
		outs[i].Body = []int{outs[i].Body.(int)}
	}
	return s, outs
}

func (p sliceBodyProto) Decision(st flp.State) (int, bool) { return p.inner.Decision(st) }

// TestUncomparableBodiesMatchLegacy: protocols with slice-valued
// message bodies must not panic and must report what the seed engine
// reported.
func TestUncomparableBodiesMatchLegacy(t *testing.T) {
	proto := sliceBodyProto{inner: flp.WaitAll{Procs: 3}}
	golden := []struct {
		digest  string
		configs int
	}{
		{"decided=10 valence=0-valent agreementViolated=0 terminationViolated=0 truncated=0", 80},
		{"decided=10 valence=0-valent agreementViolated=0 terminationViolated=1 truncated=0", 614},
	}
	for crashes, g := range golden {
		got := flp.Explore(proto, []int{0, 1, 1}, flp.Options{MaxCrashes: crashes})
		if d := reportDigest(got); d != g.digest || got.Configs != g.configs {
			t.Errorf("slice bodies crashes=%d: %s configs=%d, golden %s configs=%d",
				crashes, d, got.Configs, g.digest, g.configs)
		}
	}
}

// bigDecisionProto wraps WaitAll but reports decisions shifted far past
// int8 range — the seed engine handled arbitrary decision values, so
// the rebuilt decision cache must too.
type bigDecisionProto struct{ inner flp.WaitAll }

func (p bigDecisionProto) N() int { return p.inner.N() }
func (p bigDecisionProto) Initial(pid, input int) (flp.State, []flp.Outgoing) {
	return p.inner.Initial(pid, input)
}
func (p bigDecisionProto) Deliver(pid int, st flp.State, from int, body any) (flp.State, []flp.Outgoing) {
	return p.inner.Deliver(pid, st, from, body)
}
func (p bigDecisionProto) Decision(st flp.State) (int, bool) {
	v, ok := p.inner.Decision(st)
	if !ok {
		return v, ok
	}
	return 200 + v, true
}

func TestLargeDecisionValuesMatchLegacy(t *testing.T) {
	got := flp.Explore(bigDecisionProto{inner: flp.WaitAll{Procs: 2}}, []int{1, 1}, flp.Options{})
	// The seed engine decided only 201, over 7 configurations, and found
	// no termination violation.
	if fmt.Sprint(got.Decided) != "map[201:true]" || got.Configs != 7 || got.TerminationViolation != "" {
		t.Fatalf("large decisions: Decided=%v configs=%d term=%q, golden map[201:true] configs=7 no violation",
			got.Decided, got.Configs, got.TerminationViolation)
	}
}

// TestViolationMessagesAreStructured: violation notes name processes
// and values, and never embed a rendered configuration (the seed's %#v
// keys grew unbounded with n).
func TestViolationMessagesAreStructured(t *testing.T) {
	rep := flp.Explore(flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1})
	if rep.AgreementViolation == "" {
		t.Fatal("expected an agreement violation")
	}
	if len(rep.AgreementViolation) > 160 {
		t.Errorf("agreement violation message too long (%d bytes): %q",
			len(rep.AgreementViolation), rep.AgreementViolation)
	}
	repAll := flp.Explore(flp.WaitAll{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1})
	if repAll.TerminationViolation == "" {
		t.Fatal("expected a termination violation")
	}
	if len(repAll.TerminationViolation) > 160 {
		t.Errorf("termination violation message too long (%d bytes): %q",
			len(repAll.TerminationViolation), repAll.TerminationViolation)
	}
}
