// Command bench is the repository's one benchmark: six named workloads
// over the three daemons' code paths and the verifiers, end-to-end
// metrics per op class measured with tracing off, and a separate traced
// pass that splits one request's time by layer. See README.md.
//
//	bash bench/run.sh                       every workload, untraced then traced; prints a table
//	bash bench/run.sh -out new.json         … and writes the report
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -selfcheck            two full sets back to back must agree
//	bash bench/run.sh --workload kv-tcp-write --seed 1 --seconds 10 --trace 0
//
// The last form is what the driver runs: one workload, one JSON object
// on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's JSON line (default: the full set)")
		seed         = flag.Int64("seed", 1, "seed of every generated input: keys, histories, corpora")
		seconds      = flag.Int("seconds", defaultSeconds, "measured seconds per workload")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "full set: write the report to this file")
		reps         = flag.Int("reps", 1, "full set and -selfcheck: repetitions (-compare needs several to see the spread)")
		spansOut     = flag.String("spans", "", "traced pass: write the recorded spans to <this>.hosts.json and <this>.rsm.json")
		compare      = flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
		selfcheck    = flag.Bool("selfcheck", false, "run two full sets back to back and fail if they disagree")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.cleanup()
	mk := func(tr bool) *ctx {
		return &ctx{env: e, seed: *seed, rng: rand.New(rand.NewSource(*seed)),
			seconds: time.Duration(*seconds) * time.Second, trace: tr, spansOut: *spansOut}
	}
	switch {
	case *workloadName != "":
		return runDriver(mk(*trace != 0), *workloadName)
	case *selfcheck:
		return runSelfcheck(mk, max(*reps, 1))
	default:
		rep, ok := runFullSet(mk, max(*reps, 1))
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if !ok {
			return 1
		}
		return 0
	}
}

// defaultSeconds is the measured window when -seconds is not given; it
// equals run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// runOne runs a workload on a host that is left alone (host.go) and
// prints its notes to standard error.
func runOne(c *ctx, w *workload) (*result, error) {
	fmt.Fprintf(os.Stderr, "== %s (seed %d, %s, trace=%v, GOMAXPROCS=%d; no injected delay: localhost, so latency is timers + CPU)\n",
		w.name, c.seed, c.seconds, c.trace, runtime.GOMAXPROCS(0))
	var r *result
	for attempt := 0; ; attempt++ {
		waited, quiet := waitQuiet()
		if waited > time.Second {
			fmt.Fprintf(os.Stderr, "  host: waited %.0f s for the hypervisor to leave the cores alone (quiet now: %v)\n", waited.Seconds(), quiet)
		}
		c.rng = rand.New(rand.NewSource(c.seed)) // a second attempt gets the inputs of the first
		host := markHost()
		var err error
		if r, err = w.run(c); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.set("host.steal_share", stolenSince(host))
		r.set("host.runs_discarded", float64(attempt))
		r.notef("host: %.1f%% of CPU time stolen during the run; %d run(s) before it discarded", 100*r.m["host.steal_share"], attempt)
		// A run that missed a gate is never measured again: the miss is
		// the result.
		if r.m["host.steal_share"] <= quietSteal || attempt == 1 || len(r.misses) > 0 {
			break
		}
		fmt.Fprintf(os.Stderr, "  host: %.1f%% of CPU time was stolen during that run; measuring it again\n", 100*r.m["host.steal_share"])
	}
	if c.trace {
		for _, l := range w.layers {
			if err := l.run(c, r); err != nil {
				return nil, fmt.Errorf("%s: per-layer %s: %w", w.name, l.name, err)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, m := range r.misses {
		fmt.Fprintln(os.Stderr, "  MISS: "+m)
	}
	return r, nil
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver is the driver's entry: one workload, one JSON line. With
// trace off the metrics are the end-to-end ones, with trace on every
// per-layer one (0 where a layer is not on this workload's path).
func runDriver(c *ctx, name string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	r, err := runOne(c, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line := driverLine{Correct: len(r.misses) == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]driverValue{}}
	for _, d := range metricDefs {
		if d.e2e == c.trace {
			continue
		}
		v, ok := r.m[d.name]
		if !ok && d.e2e {
			fmt.Fprintf(os.Stderr, "bench: %s did not measure %s\n", name, d.name)
			return 1
		}
		line.Metrics[d.name] = driverValue{Value: v, Unit: d.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}
