package models

import (
	"math/bits"

	"distbasics/internal/flp"
	"distbasics/internal/scenario"
)

// FLP is the differential model for the FLP-style exhaustive explorer:
// for a seeded family of deterministic "lottery" flooding protocols
// (and the shipped wait-all/wait-majority candidates on some seeds),
// the DPOR search must match the full search on the Decided set,
// valence and violation classification, over no more configurations. The answers the retired seed engine agreed on are
// frozen in testdata/digests.txt.
type FLP struct{}

// Name implements scenario.Model.
func (*FLP) Name() string { return "flp" }

// lotteryProto is a seeded family of deterministic flooding protocols:
// each process floods its input, then decides once it has heard from
// Threshold processes, on a value drawn deterministically from the seed
// and the multiset of heard values. Different seeds give protocols with
// different valence and violation profiles — richer equivalence fodder
// than the two shipped candidates.
type lotteryProto struct {
	Procs     int
	Threshold int
	Seed      uint64
}

// lotState mirrors the shipped protocols' state shape: heard/value
// bitmasks plus the decision.
type lotState struct {
	Heard   int
	Vals    int
	Decided int
}

func lotterySplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// N implements flp.Protocol.
func (p lotteryProto) N() int { return p.Procs }

// Initial implements flp.Protocol.
func (p lotteryProto) Initial(pid int, input int) (flp.State, []flp.Outgoing) {
	s := lotState{Heard: 1 << uint(pid), Vals: input << uint(pid), Decided: -1}
	outs := make([]flp.Outgoing, 0, p.Procs-1)
	for i := 0; i < p.Procs; i++ {
		if i != pid {
			outs = append(outs, flp.Outgoing{To: i, Body: input})
		}
	}
	return p.maybeDecide(s), outs
}

// Deliver implements flp.Protocol.
func (p lotteryProto) Deliver(_ int, st flp.State, from int, body any) (flp.State, []flp.Outgoing) {
	s := st.(lotState)
	if s.Decided >= 0 {
		return s, nil
	}
	s.Heard |= 1 << uint(from)
	if body.(int) == 1 {
		s.Vals |= 1 << uint(from)
	}
	return p.maybeDecide(s), nil
}

func (p lotteryProto) maybeDecide(s lotState) lotState {
	if s.Decided < 0 && bits.OnesCount(uint(s.Heard)) >= p.Threshold {
		s.Decided = int(lotterySplitmix(p.Seed^uint64(s.Heard)<<20^uint64(s.Vals)) & 1)
	}
	return s
}

// Decision implements flp.Protocol.
func (p lotteryProto) Decision(st flp.State) (int, bool) {
	s := st.(lotState)
	return s.Decided, s.Decided >= 0
}

// flpReportDigest renders the Report fields the searches must agree on.
func flpReportDigest(r flp.Report) string {
	return "decided=" + boolString(r.Decided[0]) + boolString(r.Decided[1]) +
		" valence=" + r.Valence().String() +
		" agreementViolated=" + boolString(r.AgreementViolation != "") +
		" terminationViolated=" + boolString(r.TerminationViolation != "") +
		" truncated=" + boolString(r.Truncated)
}

func boolString(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Generate implements scenario.Model (seed-only: the protocol, inputs,
// and crash budget derive from the seed in Run).
func (*FLP) Generate(seed uint64) *scenario.Scenario {
	return &scenario.Scenario{Model: "flp", Seed: seed}
}

// Run implements scenario.Model.
func (*FLP) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	cfg := scenario.NewRand(sc.Seed).Derive(100)
	n := 2 + cfg.Intn(2)
	var proto flp.Protocol
	name := "lottery"
	switch cfg.Intn(4) {
	case 0:
		proto, name = flp.WaitAll{Procs: n}, "wait-all"
	case 1:
		proto, name = flp.WaitMajority{Procs: n}, "wait-majority"
	default:
		proto = lotteryProto{Procs: n, Threshold: 1 + cfg.Intn(n), Seed: cfg.Uint64()}
	}
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = cfg.Intn(2)
	}
	crashes := cfg.Intn(2)

	full := flp.Explore(proto, inputs, flp.Options{MaxCrashes: crashes})
	res.Tracef("proto=%s%+v inputs=%v crashes=%d", name, proto, inputs, crashes)
	res.Tracef("serial: %s configs=%d", flpReportDigest(full), full.Configs)
	// DPOR rows: the reduced search must match the full search on the
	// digest, over no more configurations.
	dpor := flp.Explore(proto, inputs, flp.Options{MaxCrashes: crashes, DPOR: true})
	res.Tracef("dpor: %s configs=%d", flpReportDigest(dpor), dpor.Configs)
	if d := flpReportDigest(dpor); d != flpReportDigest(full) {
		res.Failf("DPOR digest diverges from full search: %s vs %s", d, flpReportDigest(full))
	}
	if dpor.Configs > full.Configs {
		res.Failf("DPOR visited more configs (%d) than the full search (%d)", dpor.Configs, full.Configs)
	}
	res.Completed = full.Configs
	return res
}
