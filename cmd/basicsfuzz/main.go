// Command basicsfuzz runs seed-deterministic fuzz campaigns over the
// scenario harness's models (internal/scenario/models) and replays
// reported failures.
//
// Campaign mode (the default) runs a seed range per model, then
// -mutants more runs that mutate coverage-novel scenarios
// (scenario.Campaign; -mutants=0 is plain independent-seed sampling).
// Every failure is shrunk to a minimal reproducer and written to -out;
// -corpus-out archives the coverage-novel scenarios; -digests-out writes
// one "model seed digest" line per generated seed (scenario.Result's
// Digest), so a diff of two such files lists the seeds whose answers
// moved. internal/scenario/models/testdata/digests.txt is that file for
// seeds 1–120 of every model:
//
//	basicsfuzz -models=all -seeds=200
//	basicsfuzz -models=abd,benor -seeds=500 -mutants=1500 -out=fuzz-repro -corpus-out=fuzz-corpus
//	basicsfuzz -models=all -seeds=120 -digests-out=internal/scenario/models/testdata/digests.txt
//
// Replay mode re-runs one scenario — the invocation every harness
// failure message prints:
//
//	basicsfuzz -model=abd -seed=1234 -v
//	basicsfuzz -replay=fuzz-repro/abd-seed1234.scenario -v
//
// The exit status is non-zero iff any run failed its oracle.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

func main() {
	var (
		modelsFlag = flag.String("models", "all", "comma-separated model names for campaign mode (\"all\" = every model)")
		modelFlag  = flag.String("model", "", "model name for single-seed replay mode (with -seed)")
		seedFlag   = flag.Uint64("seed", 0, "seed to replay (with -model)")
		replayFlag = flag.String("replay", "", "encoded scenario file to replay")
		seedsFlag  = flag.Uint64("seeds", 25, "generated seeds per model in campaign mode")
		startFlag  = flag.Uint64("start", 1, "first seed in campaign mode (also seeds the mutation stream)")
		mutants    = flag.Int("mutants", 0, "runs per model spent mutating coverage-novel scenarios after the seeds")
		outFlag    = flag.String("out", "", "directory to write found-crasher reproducers (empty = don't write)")
		corpusOut  = flag.String("corpus-out", "", "directory to archive the coverage-novel scenarios")
		digestsOut = flag.String("digests-out", "", "file to write one \"model seed digest\" line per generated seed")
		verbose    = flag.Bool("v", false, "print run traces")
	)
	flag.Parse()

	switch {
	case *replayFlag != "":
		os.Exit(replayFile(*replayFlag, *verbose))
	case *modelFlag != "":
		os.Exit(replaySeed(*modelFlag, *seedFlag, *verbose))
	default:
		os.Exit(campaign(*modelsFlag, *startFlag, *seedsFlag, *mutants, *outFlag, *corpusOut, *digestsOut, *verbose))
	}
}

// writeScenario encodes sc into dir under name, creating dir as needed.
func writeScenario(dir, name string, sc *scenario.Scenario) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), sc.Encode(), 0o644)
}

// printTrace renders a result's trace lines.
func printTrace(res *scenario.Result) {
	for _, line := range res.Trace {
		fmt.Printf("  | %s\n", line)
	}
}

func replaySeed(name string, seed uint64, verbose bool) int {
	m, err := models.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return replay(m, m.Generate(seed), verbose)
}

func replayFile(path string, verbose bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc, err := scenario.Decode(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	m, err := models.ByName(sc.Model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return replay(m, sc, verbose)
}

// replay runs one scenario and prints its outcome.
func replay(m scenario.Model, sc *scenario.Scenario, verbose bool) int {
	res := scenario.Run(m, sc)
	fmt.Printf("scenario: %s\n", sc.Summary())
	if verbose {
		printTrace(res)
	}
	if res.Failed {
		fmt.Printf("FAIL: %s\n", res.Reason)
		return 1
	}
	fmt.Printf("ok: %d completed, %d pending\n", res.Completed, res.Pending)
	return 0
}

func campaign(names string, start, seeds uint64, mutants int, out, corpusDir, digestsOut string, verbose bool) int {
	selected := models.All()
	if names != "all" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			m, err := models.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			selected = append(selected, m)
		}
	}
	exit := 0
	var digests strings.Builder
	for _, m := range selected {
		c := &scenario.Campaign{
			Model: m, Start: start, Count: seeds, Mutants: mutants,
			Log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		}
		began := time.Now()
		failures, stats := c.Run()
		fmt.Printf("%s: %d runs (%d seeds + %d mutants), %d failures (%d unique), %d signatures (%d after seeds), corpus %d, %d completed + %d pending ops, %v wall\n",
			m.Name(), stats.Runs, seeds, stats.Runs-int(seeds), stats.Failures, len(failures),
			len(stats.Coverage), stats.SeedSignatures, len(stats.Corpus), stats.Completed, stats.Pending,
			time.Since(began).Round(time.Millisecond))
		for i, d := range stats.Digests {
			fmt.Fprintf(&digests, "%s %d %s\n", m.Name(), start+uint64(i), d)
		}
		if stats.ShrinkRuns > 0 {
			fmt.Printf("  (shrinking spent %d runs)\n", stats.ShrinkRuns)
		}
		for i, f := range failures {
			exit = 1
			// Only a generated seed regenerates its scenario; a mutant is
			// replayed from its encoded form.
			where, name := fmt.Sprintf("seed %d", f.Seed), fmt.Sprintf("%s-seed%d.scenario", m.Name(), f.Seed)
			reproduce := "replay: " + scenario.ReplayCommand(m.Name(), f.Seed) + "\n"
			if f.Mutant {
				where, name = fmt.Sprintf("mutant %d", i), fmt.Sprintf("%s-mutant%d.scenario", m.Name(), i)
				reproduce = "encoded reproducer (replay with -replay=FILE):\n" + string(f.Shrunk.Encode())
			}
			fmt.Printf("  %s: %s\n  minimal reproducer: %s\n  %s", where, f.Result.Reason, f.Shrunk.Summary(), reproduce)
			if verbose {
				printTrace(f.Result)
			}
			if out != "" {
				if err := writeScenario(out, name, f.Shrunk); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				fmt.Printf("  reproducer written to %s\n", filepath.Join(out, name))
			}
		}
		if corpusDir != "" {
			for i, sc := range stats.Corpus {
				if err := writeScenario(corpusDir, fmt.Sprintf("%s-corpus%03d.scenario", m.Name(), i), sc); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
			}
			fmt.Printf("  corpus archived to %s (%d scenarios)\n", corpusDir, len(stats.Corpus))
		}
	}
	if digestsOut != "" {
		if err := os.WriteFile(digestsOut, []byte(digests.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	return exit
}
