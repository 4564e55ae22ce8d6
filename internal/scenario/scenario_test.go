package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRandDeterministicAndDeriveIndependent(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Deriving a sub-stream must not consume the parent stream.
	c, d := NewRand(7), NewRand(7)
	_ = c.Derive(3)
	if c.Uint64() != d.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
	// Distinct streams must differ.
	if NewRand(7).Derive(1).Uint64() == NewRand(7).Derive(2).Uint64() {
		t.Fatal("derived streams collide")
	}
	// Perm must be a permutation.
	p := NewRand(9).Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

func sampleScenario() *Scenario {
	return &Scenario{
		Model: "abd", Seed: 12345, Procs: 5,
		Ops: []Op{
			{Proc: 0, Kind: OpWrite, Val: 1},
			{Proc: 1, Kind: OpRead},
			{Proc: 2, Kind: OpPut, Key: 3, Val: 9},
		},
		Faults: []Fault{
			{Kind: FaultPartition, From: 100, Until: 400, Group: []int{0, 2}},
			{Kind: FaultCrash, Proc: 3, From: 50, Until: 700},
			{Kind: FaultDrop, Pct: 20, From: 10, Until: 300, Sub: 99},
			{Kind: FaultIsolate, From: 5, Until: 25, Group: []int{1}},
			{Kind: FaultSkew, Pct: 2},
			{Kind: FaultSendBudget, Proc: 2, Pct: 4},
		},
		Sched: []int64{3, 1, 4, 1, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc := sampleScenario()
	dec, err := Decode(sc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", sc, dec)
	}
	// A scenario with empty lists round-trips too.
	empty := &Scenario{Model: "flp", Seed: 1, Procs: 3}
	dec, err = Decode(empty.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, dec) {
		t.Fatalf("empty round trip mismatch: %+v vs %+v", empty, dec)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a scenario",
		"scenario v1\nmodel=x seed=nope procs=3",
		"scenario v1\nmodel=x seed=1 procs=3\nop proc=0 kind=frobnicate key=0 val=0",
		"scenario v1\nmodel=x seed=1 procs=3\nmystery line",
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", bad)
		}
	}
}

func TestGoLiteralMentionsEverything(t *testing.T) {
	lit := sampleScenario().GoLiteral()
	for _, want := range []string{
		"scenario.Scenario", "scenario.OpWrite", "scenario.OpRead", "scenario.OpPut",
		"scenario.FaultPartition", "scenario.FaultCrash", "scenario.FaultDrop",
		"scenario.FaultIsolate", "scenario.FaultSkew", "scenario.FaultSendBudget",
		"Sched: []int64{3, 1, 4, 1, 5}",
	} {
		if !strings.Contains(lit, want) {
			t.Errorf("GoLiteral missing %q:\n%s", want, lit)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	sc := sampleScenario()
	c := sc.Clone()
	c.Ops[0].Val = 999
	c.Faults[0].Group[0] = 999
	c.Sched[0] = 999
	if sc.Ops[0].Val == 999 || sc.Faults[0].Group[0] == 999 || sc.Sched[0] == 999 {
		t.Fatal("Clone shares backing storage with the original")
	}
}

// needleModel fails iff the scenario still contains every "needle"
// element: ops with Val 7 and 8, the crash fault, and sched entry 5.
// The shrinker must strip everything else and nothing less.
type needleModel struct{ runs int }

func (m *needleModel) Name() string { return "needle" }

func (m *needleModel) Generate(seed uint64) *Scenario {
	sc := &Scenario{Model: "needle", Seed: seed, Procs: 3}
	for i := 0; i < 20; i++ {
		sc.Ops = append(sc.Ops, Op{Proc: i % 3, Kind: OpWrite, Val: i})
	}
	for i := 0; i < 6; i++ {
		kind := FaultPartition
		if i == 3 {
			kind = FaultCrash
		}
		sc.Faults = append(sc.Faults, Fault{Kind: kind, Proc: i})
	}
	sc.Sched = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	return sc
}

func (m *needleModel) Run(sc *Scenario) *Result {
	m.runs++
	res := &Result{}
	has7, has8, hasCrash, has5 := false, false, false, false
	for _, op := range sc.Ops {
		if op.Val == 7 {
			has7 = true
		}
		if op.Val == 8 {
			has8 = true
		}
	}
	for _, f := range sc.Faults {
		if f.Kind == FaultCrash {
			hasCrash = true
		}
	}
	for _, s := range sc.Sched {
		if s == 5 {
			has5 = true
		}
	}
	if has7 && has8 && hasCrash && has5 {
		res.Failf("needle present")
	}
	return res
}

func TestShrinkFindsMinimalNeedle(t *testing.T) {
	m := &needleModel{}
	sc := m.Generate(1)
	if !m.Run(sc).Failed {
		t.Fatal("generated scenario must fail")
	}
	shrunk, runs := Shrink(m, sc, 5000)
	if runs <= 0 || runs > 5000 {
		t.Fatalf("runs = %d", runs)
	}
	if !m.Run(shrunk).Failed {
		t.Fatal("shrunk scenario no longer fails")
	}
	if len(shrunk.Ops) != 2 || len(shrunk.Faults) != 1 || len(shrunk.Sched) != 1 {
		t.Fatalf("shrink not minimal: ops=%d faults=%d sched=%d (want 2/1/1)\n%s",
			len(shrunk.Ops), len(shrunk.Faults), len(shrunk.Sched), shrunk.GoLiteral())
	}
	if shrunk.Sched[0] != 5 || shrunk.Faults[0].Kind != FaultCrash {
		t.Fatalf("shrink kept the wrong elements: %+v", shrunk)
	}
}

func TestShrinkRespectsBudget(t *testing.T) {
	m := &needleModel{}
	sc := m.Generate(1)
	m.runs = 0
	_, runs := Shrink(m, sc, 10)
	if runs > 10 {
		t.Fatalf("shrinker spent %d runs, budget was 10", runs)
	}
	if m.runs > 10 {
		t.Fatalf("model saw %d runs, budget was 10", m.runs)
	}
}

// greenAfterModel fails only on seeds below 3, to exercise Campaign
// bookkeeping.
type thresholdModel struct{}

func (thresholdModel) Name() string { return "threshold" }
func (thresholdModel) Generate(seed uint64) *Scenario {
	return &Scenario{Model: "threshold", Seed: seed, Ops: []Op{{Proc: int(seed), Kind: OpWrite}}}
}
func (thresholdModel) Run(sc *Scenario) *Result {
	res := &Result{Completed: 1}
	if len(sc.Ops) > 0 && sc.Ops[0].Proc < 3 {
		res.Failf("seed below threshold")
	}
	return res
}

func TestCampaignCollectsAndShrinks(t *testing.T) {
	c := &Campaign{Model: thresholdModel{}, Start: 1, Count: 10}
	failures, stats := c.Run()
	if stats.Runs != 10 || stats.Failures != 2 {
		t.Fatalf("stats = %+v, want 10 seeds / 2 failures", stats)
	}
	// Both failures share one reason shape: the first is returned.
	if len(failures) != 1 || failures[0].Seed != 1 || failures[0].Mutant {
		t.Fatalf("failures = %+v", failures)
	}
	for _, f := range failures {
		if f.Shrunk == nil || f.ShrunkResult == nil || !f.ShrunkResult.Failed {
			t.Fatalf("failure %d not shrunk: %+v", f.Seed, f)
		}
	}
}

// panicModel panics while its scenario holds the op with Val 3 — the
// bug a mutated or hand-edited scenario reaches — and is green on
// every other seed.
type panicModel struct{}

func (panicModel) Name() string { return "panicky" }
func (panicModel) Generate(seed uint64) *Scenario {
	return &Scenario{Model: "panicky", Seed: seed, Procs: 2, Ops: []Op{
		{Kind: OpWrite, Val: 1}, {Kind: OpWrite, Val: int(seed)}, {Kind: OpRead, Val: 2},
	}}
}
func (panicModel) Run(sc *Scenario) *Result {
	res := &Result{Completed: len(sc.Ops)}
	for _, op := range sc.Ops {
		if op.Val == 3 {
			var regs []int
			res.Tracef("read %d", regs[op.Val])
		}
	}
	return res
}

func TestCampaignSurvivesPanickingModel(t *testing.T) {
	c := &Campaign{Model: panicModel{}, Start: 1, Count: 5}
	failures, stats := c.Run()
	if stats.Runs != 5 || stats.Failures != 1 || stats.Completed != 12 {
		t.Fatalf("stats = %+v, want 5 runs / 1 failure / 12 ops completed by the other seeds", stats)
	}
	if len(failures) != 1 || failures[0].Seed != 3 {
		t.Fatalf("failures = %+v, want seed 3", failures)
	}
	f := failures[0]
	if !strings.HasPrefix(f.Result.Reason, "panic: runtime error: index out of range") {
		t.Fatalf("reason = %q, want the recovered panic", f.Result.Reason)
	}
	if len(f.Shrunk.Ops) != 1 || f.Shrunk.Ops[0].Val != 3 || !strings.HasPrefix(f.ShrunkResult.Reason, "panic: ") {
		t.Fatalf("shrunk to %s (%q), want the one panicking op", f.Shrunk.GoLiteral(), f.ShrunkResult.Reason)
	}
}

// TestTraceCoverageShapes pins the coverage signature abstraction:
// digit runs collapse, distinct shapes stay distinct, and the fault
// kinds composed against the run form one signature.
func TestTraceCoverageShapes(t *testing.T) {
	res := &Result{Completed: 3}
	res.Tracef("p%d write(%d) -> %d @[%d,%d]", 3, 7, 7, 141, 209)
	res.Tracef("p%d write(%d) -> %d @[%d,%d]", 0, 2, 2, 87, 90)
	res.Tracef("p%d read pending @%d", 1, 55)
	sc := &Scenario{Procs: 4, Faults: []Fault{{Kind: FaultDrop}, {Kind: FaultCrash}, {Kind: FaultDrop}}}
	got := make(map[string]bool)
	for _, sig := range coverage(sc, res) {
		got[sig] = true
	}
	want := map[string]bool{
		"t:p# write(#) -> # @[#,#]": true,
		"t:p# read pending @#":      true,
		"faults:crash+drop":         true,
		"completed:2/4":             true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("signatures %v, want %v", got, want)
	}
}

// recordingTB captures Reportf output.
type recordingTB struct {
	msgs []string
}

func (r *recordingTB) Helper() {}
func (r *recordingTB) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func TestReportfPrintsReplayInvocation(t *testing.T) {
	var tb recordingTB
	Reportf(&tb, "abd", 77, "violation with %d ops", 9)
	if len(tb.msgs) != 1 {
		t.Fatalf("got %d messages", len(tb.msgs))
	}
	for _, want := range []string{"violation with 9 ops", "go run ./cmd/basicsfuzz -model=abd -seed=77 -v"} {
		if !strings.Contains(tb.msgs[0], want) {
			t.Errorf("Reportf output missing %q:\n%s", want, tb.msgs[0])
		}
	}

	tb = recordingTB{}
	ReportScenariof(&tb, sampleScenario(), "shrunk failure")
	if len(tb.msgs) != 1 {
		t.Fatalf("got %d messages", len(tb.msgs))
	}
	for _, want := range []string{"shrunk failure", "scenario v1", "-replay=FILE", "scenario.Scenario"} {
		if !strings.Contains(tb.msgs[0], want) {
			t.Errorf("ReportScenariof output missing %q:\n%s", want, tb.msgs[0])
		}
	}
}

func TestResultFailfKeepsFirstReason(t *testing.T) {
	res := &Result{}
	res.Tracef("line %d", 1)
	res.Failf("first")
	res.Failf("second")
	if res.Reason != "first" || !res.Failed {
		t.Fatalf("Reason = %q", res.Reason)
	}
	if len(res.Trace) != 3 || res.Trace[1] != "FAIL: first" || res.Trace[2] != "FAIL: second" {
		t.Fatalf("Trace = %v", res.Trace)
	}
}

func TestOpsFor(t *testing.T) {
	sc := sampleScenario()
	if got := sc.OpsFor(1); len(got) != 1 || got[0].Kind != OpRead {
		t.Fatalf("OpsFor(1) = %v", got)
	}
	if got := sc.OpsFor(9); got != nil {
		t.Fatalf("OpsFor(9) = %v", got)
	}
}
