package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Result is the outcome of running one scenario. Results must be a
// deterministic function of the scenario: the determinism tests replay
// every adapter and require byte-identical Results.
type Result struct {
	// Failed reports that the oracle rejected the run.
	Failed bool
	// Reason describes the violation ("" when !Failed).
	Reason string
	// Trace is the run's deterministic observable trace — compact lines
	// sufficient to diff two replays byte-for-byte.
	Trace []string
	// Completed and Pending count client operations that returned /
	// never returned (0/0 for models without client operations).
	Completed, Pending int
}

// Tracef appends a formatted line to the result's trace.
func (r *Result) Tracef(format string, args ...any) {
	r.Trace = append(r.Trace, fmt.Sprintf(format, args...))
}

// Failf marks the result failed with a formatted reason (the first
// failure wins; later calls append to the trace only).
func (r *Result) Failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !r.Failed {
		r.Failed = true
		r.Reason = msg
	}
	r.Trace = append(r.Trace, "FAIL: "+msg)
}

// TraceString returns the trace as one newline-joined string.
func (r *Result) TraceString() string { return strings.Join(r.Trace, "\n") }

// Digest fingerprints everything a Result carries: the first 16 hex
// digits of the sha256 of Failed|Reason|Completed|Pending|Trace. Two
// engines, or two versions of one, answer a scenario alike iff their
// digests match; basicsfuzz -digests-out writes one per generated seed.
func (r *Result) Digest() string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%v|%v|%v|%v|%v", r.Failed, r.Reason, r.Completed, r.Pending, r.Trace))
	return hex.EncodeToString(sum[:8])
}

// Model adapts one execution model to the harness. Implementations live
// in internal/scenario/models; each wires a Scenario's ops, faults, and
// schedule choices into its engine's native adversary/policy interfaces
// and checks the model's oracle.
type Model interface {
	// Name is the model's registry name (basicsfuzz -model).
	Name() string
	// Generate derives a complete scenario from the seed. It must be
	// deterministic and must set Scenario.Model to Name() and
	// Scenario.Seed to seed, so a reported seed is a full reproducer.
	Generate(seed uint64) *Scenario
	// Run executes the scenario and checks the oracle. It must be
	// deterministic and must tolerate any scenario Decode accepts —
	// shrunk scenarios (subsets of the generated lists) and mutants
	// included — skipping what is invalid for the model rather than
	// panicking.
	Run(sc *Scenario) *Result
}

// Run runs sc on m. It is the harness's one call of Model.Run: a panic
// on the calling goroutine becomes a failed Result with reason
// "panic: …", so it is shrunk and reported like any oracle failure
// instead of killing the campaign and every model after it.
func Run(m Model, sc *Scenario) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{}
			res.Failf("panic: %v", p)
		}
	}()
	return m.Run(sc)
}

// Campaign is the fuzz loop behind cmd/basicsfuzz and the package-level
// fuzz fences. It runs the generated seeds [Start, Start+Count), then
// spends Mutants more runs mutating coverage-novel corpus entries (see
// mutate.go), so Mutants == 0 is plain independent-seed sampling. The
// whole campaign is a deterministic function of its fields: the
// mutation stream is derived from Start.
type Campaign struct {
	Model        Model
	Start, Count uint64
	Mutants      int
	// MaxShrinkRuns bounds the Model.Run calls ddmin may spend per
	// failure (0: 2000).
	MaxShrinkRuns int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one found crasher: the scenario that failed, its result,
// and the shrunk reproducer with its (still failing) result.
type Failure struct {
	// Seed is the generated seed that failed. A failure found on a
	// mutant has no seed that regenerates it (Mutant is set, Seed is 0):
	// its Scenario is the reproducer.
	Seed         uint64
	Mutant       bool
	Scenario     *Scenario
	Result       *Result
	Shrunk       *Scenario
	ShrunkResult *Result
}

// Stats aggregates a campaign.
type Stats struct {
	Runs, Failures     int
	Completed, Pending int
	// ShrinkRuns counts Model.Run calls spent shrinking failures (for
	// tuning MaxShrinkRuns).
	ShrinkRuns int
	// Coverage is the set of coverage signatures reached, and
	// SeedSignatures its size after the generated seeds: the difference
	// is what mutation bought over pure generation.
	Coverage       map[string]bool
	SeedSignatures int
	// Corpus holds the coverage-novel scenarios, in discovery order
	// (basicsfuzz -corpus-out writes them as .scenario files).
	Corpus []*Scenario
	// Digests holds Result.Digest of each generated seed, in seed order
	// (mutants get none).
	Digests []string
}

// Run executes the campaign. Every failing run is counted; the first
// failure of each reason shape is returned, shrunk.
func (c *Campaign) Run() ([]Failure, Stats) {
	logf := c.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shrinkBudget := c.MaxShrinkRuns
	if shrinkBudget <= 0 {
		shrinkBudget = 2000
	}
	var failures []Failure
	stats := Stats{Coverage: make(map[string]bool)}
	seenFail := make(map[string]bool)
	try := func(sc *Scenario, f Failure) *Result {
		res := Run(c.Model, sc)
		stats.Runs++
		stats.Completed += res.Completed
		stats.Pending += res.Pending
		known := len(stats.Coverage)
		for _, sig := range coverage(sc, res) {
			stats.Coverage[sig] = true
		}
		if len(stats.Coverage) > known { // coverage-novel
			stats.Corpus = append(stats.Corpus, sc)
		}
		if !res.Failed {
			return res
		}
		stats.Failures++
		if shape := coverageShape(res.Reason); !seenFail[shape] {
			seenFail[shape] = true
			where := fmt.Sprintf("seed %d", f.Seed)
			if f.Mutant {
				where = fmt.Sprintf("mutant (run %d)", stats.Runs)
			}
			logf("%s: FAILURE on %s: %s", c.Model.Name(), where, res.Reason)
			shrunk, runs := Shrink(c.Model, sc, shrinkBudget)
			stats.ShrinkRuns += runs
			f.Scenario, f.Result = sc, res
			f.Shrunk, f.ShrunkResult = shrunk, Run(c.Model, shrunk)
			logf("%s: shrunk to %s in %d runs", c.Model.Name(), shrunk.Summary(), runs)
			failures = append(failures, f)
		}
		return res
	}
	for seed := c.Start; seed < c.Start+c.Count; seed++ {
		stats.Digests = append(stats.Digests, try(c.Model.Generate(seed), Failure{Seed: seed}).Digest())
	}
	stats.SeedSignatures = len(stats.Coverage)
	mrng := NewRand(c.Start).Derive(0xFACADE)
	for i := 0; i < c.Mutants && len(stats.Corpus) > 0; i++ {
		parent := stats.Corpus[mrng.Intn(len(stats.Corpus))]
		try(mutateScenario(mrng.Derive(uint64(stats.Runs)), parent), Failure{Mutant: true})
	}
	return failures, stats
}
