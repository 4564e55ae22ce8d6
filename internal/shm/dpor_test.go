package shm

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestDPORDisjointWritesCollapse pins the textbook case: two processes
// writing disjoint registers commute, so the two full-enumeration
// schedules form one Mazurkiewicz class and DPOR explores exactly one.
func TestDPORDisjointWritesCollapse(t *testing.T) {
	factory := func() *Run {
		a, b := NewRegister(0), NewRegister(0)
		return &Run{Bodies: []func(*Proc) any{
			func(p *Proc) any { a.Write(p, 1); return nil },
			func(p *Proc) any { b.Write(p, 1); return nil },
		}}
	}
	check := func(out *Outcome) string { return "" }
	full := Explore(ExploreOpts{Factory: factory, Check: check})
	dpor := Explore(ExploreOpts{Factory: factory, Check: check, DPOR: true})
	if full.Executions != 2 {
		t.Fatalf("full executions = %d, want 2", full.Executions)
	}
	if dpor.Executions != 1 {
		t.Fatalf("dpor executions = %d, want 1", dpor.Executions)
	}
}

// TestDPORConflictingWritesDontCollapse pins the complementary case: two
// writes to the same register are dependent, so both orders are distinct
// classes and DPOR prunes nothing.
func TestDPORConflictingWritesDontCollapse(t *testing.T) {
	factory := func() *Run {
		r := NewRegister(0)
		body := func(p *Proc) any { r.Write(p, 1); return nil }
		return &Run{Bodies: []func(*Proc) any{body, body}}
	}
	check := func(out *Outcome) string { return "" }
	dpor := Explore(ExploreOpts{Factory: factory, Check: check, DPOR: true})
	if dpor.Executions != 2 {
		t.Fatalf("dpor executions = %d, want 2", dpor.Executions)
	}
}

// --- seeded random program family for the differential fence ---

type dporGenOp struct {
	kind int // 0 regWrite, 1 regRead, 2 faaAdd, 3 tas, 4 cas, 5 yield, 6 arrWrite, 7 arrRead
	obj  int
	val  int
}

type dporGenProg struct {
	n      int
	nregs  int
	bodies [][]dporGenOp
}

func genDPORProgram(seed int64) dporGenProg {
	rng := rand.New(rand.NewSource(seed))
	g := dporGenProg{n: 2 + rng.Intn(3), nregs: 1 + rng.Intn(3)}
	maxOps := 4
	if g.n >= 3 {
		maxOps = 3
	}
	if g.n == 4 {
		maxOps = 2
	}
	for i := 0; i < g.n; i++ {
		ops := make([]dporGenOp, 1+rng.Intn(maxOps))
		for j := range ops {
			ops[j] = dporGenOp{kind: rng.Intn(8), obj: rng.Intn(g.nregs), val: 1 + rng.Intn(5)}
		}
		g.bodies = append(g.bodies, ops)
	}
	return g
}

func (g dporGenProg) factory() *Run {
	regs := NewRegisterArray(g.nregs, 0)
	arr := NewRegisterArray(2, 0)
	faa := NewFetchAndAdd(0)
	tas := NewTestAndSet()
	cas := NewCompareAndSwap(0)
	bodies := make([]func(*Proc) any, g.n)
	for i := range bodies {
		ops := g.bodies[i]
		bodies[i] = func(p *Proc) any {
			acc := 0
			for _, op := range ops {
				switch op.kind {
				case 0:
					regs.Reg(op.obj).Write(p, op.val)
				case 1:
					acc = acc*7 + regs.Reg(op.obj).Read(p).(int)
				case 2:
					acc = acc*7 + int(faa.Add(p, int64(op.val)))
				case 3:
					if tas.TestAndSet(p) {
						acc++
					}
				case 4:
					if cas.CompareAndSwap(p, 0, op.val) {
						acc += op.val
					}
				case 5:
					p.Yield()
				case 6:
					arr.Reg(op.obj&1).Write(p, op.val)
				case 7:
					acc = acc*7 + arr.Reg(op.obj&1).Read(p).(int)
				}
			}
			return acc
		}
	}
	return &Run{Bodies: bodies}
}

// dporOutcomeCheck flags a salt-dependent subset of outcomes as
// violations. Every field it hashes is invariant under commuting
// adjacent independent steps, so an outcome is flagged consistently
// across all members of a Mazurkiewicz class — which is what makes
// "DPOR and full enumeration agree on violation presence" a theorem the
// fence can check rather than a coincidence.
func dporOutcomeCheck(salt, modulus uint64) func(out *Outcome) string {
	return func(out *Outcome) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d;", salt)
		for i := range out.Outputs {
			v, _ := out.Outputs[i].(int)
			fmt.Fprintf(h, "%d:%v:%v:%d;", v, out.Finished[i], out.Crashed[i], out.StepsBy[i])
		}
		fmt.Fprintf(h, "steps=%d cutoff=%v", out.Steps, out.Cutoff)
		if h.Sum64()%modulus == 0 {
			return fmt.Sprintf("flagged outcome (outputs %v)", out.Outputs)
		}
		return ""
	}
}

// TestDPORDifferentialFence is the soundness fence: over >= 150 seeded
// programs (with crash branching and step-budget cutoffs), DPOR and full
// enumeration must agree on violation presence, both violating schedules
// must replay to flagged outcomes, serial and parallel DPOR must agree
// exactly, and the full explorer must keep the seed explorer's answers.
func TestDPORDifferentialFence(t *testing.T) {
	runDPORFence(t, 160, true)
}

// fenceFullDigest is the sha256 over every fence seed's full-search
// (Executions, Violation), recorded while the seed-era explorer ran
// beside the full search and agreed with it on every seed.
const fenceFullDigest = "88cf290ff3c68ecae1e2ed3ebaf5242d61157ff1e238765e0cc9066916078e49"

func runDPORFence(t *testing.T, seeds int, wantAllAgree bool) (disagreed int) {
	t.Helper()
	fullSum := sha256.New()
	var fullTotal, dporTotal, violations, cutoffs int
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := genDPORProgram(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		opts := ExploreOpts{
			Factory:    g.factory,
			MaxCrashes: rng.Intn(3),
			Check:      dporOutcomeCheck(0, 5),
		}
		if rng.Intn(3) == 0 {
			opts.MaxSteps = 2 + rng.Intn(4) // force cutoff leaves
		}

		full := Explore(opts)
		fmt.Fprintf(fullSum, "%d %d %q\n", seed, full.Executions, full.Violation)

		dporOpts := opts
		dporOpts.DPOR = true
		dpor := Explore(dporOpts)

		// Agreement and dpor<=full (below) are theorems of the SOUND
		// dependence relation only; under the mutant they count as catches.
		agree := (dpor.Violation != "") == (full.Violation != "")
		if !agree {
			disagreed++
			if wantAllAgree {
				t.Fatalf("seed %d: violation presence disagrees: DPOR %q, full %q (executions %d vs %d)",
					seed, dpor.Violation, full.Violation, dpor.Executions, full.Executions)
			}
			continue
		}
		if full.Violation != "" {
			violations++
			for label, res := range map[string]*ExploreResult{"full": full, "dpor": dpor} {
				out, err := ReplayViolation(g.factory, res.Schedule, opts.MaxSteps)
				if err != nil {
					t.Fatalf("seed %d: %s violation schedule failed to replay: %v", seed, label, err)
				}
				if opts.Check(out) == "" {
					t.Fatalf("seed %d: %s violation schedule replayed to a non-violating outcome", seed, label)
				}
			}
		} else {
			// Both searches ran to exhaustion, so the counts are comparable:
			// DPOR visits at most one execution per equivalence class. (Under
			// early-stop at a violation the inequality need not hold — the
			// explorers reach their first violating class at different ranks.)
			if dpor.Executions > full.Executions {
				if wantAllAgree {
					t.Fatalf("seed %d: DPOR explored more executions (%d) than full enumeration (%d)",
						seed, dpor.Executions, full.Executions)
				}
				disagreed++
				continue
			}
			fullTotal += full.Executions
			dporTotal += dpor.Executions
		}
		if opts.MaxSteps > 0 {
			cutoffs++
		}
	}
	if got := fmt.Sprintf("%x", fullSum.Sum(nil)); got != fenceFullDigest {
		t.Fatalf("full-search digest over the fence seeds = %s, want %s", got, fenceFullDigest)
	}
	if wantAllAgree {
		if violations == 0 {
			t.Fatal("fence exercised no violating seeds — the check modulus is mistuned")
		}
		if cutoffs == 0 {
			t.Fatal("fence exercised no cutoff seeds")
		}
		if dporTotal >= fullTotal {
			t.Fatalf("DPOR achieved no reduction on violation-free seeds: %d vs %d", dporTotal, fullTotal)
		}
		t.Logf("fence: %d seeds, %d with violations, %d with cutoffs; violation-free executions full=%d dpor=%d (%.1fx reduction)",
			seeds, violations, cutoffs, fullTotal, dporTotal, float64(fullTotal)/float64(dporTotal))
	}
	return disagreed
}

// TestDPORFenceCatchesWrongDependence mutation-verifies the fence: with
// a deliberately-wrong dependence relation (every pair of steps declared
// independent), the pruned search must diverge from full enumeration on
// at least one seed — proving the fence actually constrains the
// dependence relation rather than passing vacuously. Full enumeration
// runs the same loop with nothing asleep, and runDPORFence fatals when
// the full search's digest moves whatever wantAllAgree says, so this is
// also the proof that the full reference stays full while the shared
// loop's dependence relation is wrong.
func TestDPORFenceCatchesWrongDependence(t *testing.T) {
	orig := dporDepends
	dporDepends = func(a, b dporAcc) bool { return false }
	defer func() { dporDepends = orig }()
	if disagreed := runDPORFence(t, 160, false); disagreed == 0 {
		t.Fatal("fence did not catch an always-independent dependence relation")
	}
}

// TestDPORCountsIgnoreForeignConstruction constructs shared objects on
// another goroutine throughout DPOR searches: their ids land inside the
// searches' Factory windows, and each search must still prune exactly as
// it does alone.
func TestDPORCountsIgnoreForeignConstruction(t *testing.T) {
	const seeds = 40
	opts := func(seed int64) ExploreOpts {
		return ExploreOpts{Factory: genDPORProgram(seed).factory, MaxCrashes: int(seed % 2), DPOR: true,
			Check: func(*Outcome) string { return "" }}
	}
	var alone [seeds]int
	for seed := range alone {
		alone[seed] = Explore(opts(int64(seed))).Executions
	}
	stop, stopped, running := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		NewRegister(0)
		close(running)
		for {
			select {
			case <-stop:
				return
			default:
				NewRegister(0)
			}
		}
	}()
	defer func() { close(stop); <-stopped }()
	<-running // the searches below must overlap its draws, not precede them
	for seed, want := range alone {
		if got := Explore(opts(int64(seed))).Executions; got != want {
			t.Fatalf("seed %d: %d executions beside foreign construction, %d alone", seed, got, want)
		}
	}
}
