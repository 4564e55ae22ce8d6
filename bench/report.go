package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"distbasics/internal/transport"
)

// report is what the full set writes with -out and what bench/baseline.json
// holds: where it was measured, then for every workload the metrics
// of each repetition.
type report struct {
	Env       reportEnv                  `json:"env"`
	Workloads map[string][]workloadEntry `json:"workloads"` // one entry per repetition
}

type reportEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	UnitMS     int    `json:"unit_ms"`
	Conns      int    `json:"conns"`
	Delay      string `json:"delay"`
}

type workloadEntry struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Misses    []string           `json:"misses,omitempty"`
	Metrics   map[string]float64 `json:"metrics"` // untraced run, then the traced pass's per-layer numbers
}

func newReport(c *ctx) *report {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = c.env.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &report{
		Env: reportEnv{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit,
			Seed: c.seed, Seconds: int(c.seconds.Seconds()), UnitMS: int(transport.DefaultUnit.Milliseconds()), Conns: 2,
			Delay: "no injected delay: every process is on localhost, so latencies are timers + CPU, not network",
		},
		Workloads: map[string][]workloadEntry{},
	}
}

// runSet runs every workload, then its per-layer groups, and appends
// one repetition to rep. It reports whether every gate held.
func runSet(mk func(trace bool) *ctx, rep *report) bool {
	ok := true
	for _, w := range workloads {
		// The workload itself always runs with tracing off; trace=true
		// only adds its per-layer groups afterwards.
		r, err := runOne(mk(true), w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			rep.Workloads[w.name] = append(rep.Workloads[w.name], workloadEntry{Misses: []string{err.Error()}})
			ok = false
			continue
		}
		rep.Workloads[w.name] = append(rep.Workloads[w.name], workloadEntry{
			Correct: len(r.misses) == 0, Attempted: r.attempted, Failed: r.failed, Misses: r.misses, Metrics: r.m,
		})
		ok = ok && len(r.misses) == 0
	}
	return ok
}

// runFullSet is the default mode: reps repetitions of the full set,
// then every metric by name and unit.
func runFullSet(mk func(trace bool) *ctx, reps int) (*report, bool) {
	rep := newReport(mk(false))
	ok := true
	for i := 0; i < reps; i++ {
		ok = runSet(mk, rep) && ok
	}
	printReport(rep)
	return rep, ok
}

// printReport prints every measured metric by name, with its unit, one
// table per workload; a metric's value is the median of the
// repetitions.
func printReport(rep *report) {
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d unit_ms=%d conns=%d\n%s\n",
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.Go, rep.Env.Commit, rep.Env.Seed, rep.Env.Seconds, rep.Env.UnitMS, rep.Env.Conns, rep.Env.Delay)
	for _, w := range workloads {
		entries := rep.Workloads[w.name]
		if len(entries) == 0 {
			continue
		}
		correct := true
		for _, e := range entries {
			correct = correct && e.Correct
		}
		fmt.Printf("\n%s  (correct=%v, %d repetition(s))\n", w.name, correct, len(entries))
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, d := range metricDefs {
			vals := valuesOf(entries, d.name)
			if len(vals) == 0 {
				continue
			}
			kind := "layer"
			if d.e2e || d.bound > 0 {
				kind = fmt.Sprintf("end-to-end, %s is better, bound %.0f%%", d.better, d.bound*100)
			} else if d.exact {
				kind = "layer, exact count"
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.name, median(vals), d.unit, kind)
		}
		tw.Flush()
	}
}

func valuesOf(entries []workloadEntry, name string) []float64 {
	var out []float64
	for _, e := range entries {
		if v, ok := e.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict of one (workload, metric) row of a comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	workload, metric string
	old, new         float64
	change           float64 // share of old; positive is worse
	verdict          string
}

// spread is the distance between the quartiles as a share of the
// median — with fewer than four values, the range.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = median(s[:len(s)/2]), median(s[(len(s)+1)/2:])
	}
	return (hi - lo) / median(s)
}

// compareReports applies every metric's bound to every workload that
// measured it in both reports. Exact counts must be equal. A gated
// metric is worse when the new median is worse than the old by more
// than its bound, and unresolved when the run-to-run spread of either
// side is wider than the bound — unless every new run is better than
// every old run.
func compareReports(old, new *report) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range metricDefs {
			ov, nv := valuesOf(old.Workloads[w.name], d.name), valuesOf(new.Workloads[w.name], d.name)
			if len(ov) == 0 || len(nv) == 0 || (!d.exact && d.bound == 0) {
				continue
			}
			row := compareRow{workload: w.name, metric: d.name, old: median(ov), new: median(nv), verdict: verdictOK}
			switch {
			case d.exact:
				if row.old != row.new || spread(ov) != 0 || spread(nv) != 0 {
					row.verdict = verdictWorse
				}
			case row.old == 0:
				continue // not measured on this workload
			default:
				row.change = (row.new - row.old) / row.old
				if d.better == "higher" {
					row.change = -row.change
				}
				allBetter := true
				for _, n := range nv {
					for _, o := range ov {
						if (d.better == "lower" && n >= o) || (d.better == "higher" && n <= o) {
							allBetter = false
						}
					}
				}
				switch {
				case (spread(ov) > d.bound || spread(nv) > d.bound) && !allBetter:
					row.verdict = verdictUnresolved
				case row.change > d.bound:
					row.verdict = verdictWorse
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printCompare(rows []compareRow) (worse int) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange (+ is worse)\tbound\tverdict")
	for _, r := range rows {
		d := findMetric(r.metric)
		bound := fmt.Sprintf("%.0f%%", d.bound*100)
		if d.exact {
			bound = "=="
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\n", r.workload, r.metric, r.old, r.new, r.change*100, bound, r.verdict)
		if r.verdict == verdictWorse {
			worse++
		}
	}
	tw.Flush()
	return worse
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles is -compare old.json new.json; it exits 1 when a row is
// worse.
func compareFiles(oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	new, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if worse := printCompare(compareReports(old, new)); worse > 0 {
		fmt.Printf("%d row(s) worse\n", worse)
		return 1
	}
	return 0
}

// runSelfcheck runs two full sets of the same commit back to back —
// with -reps above 1, alternately, so that drift of the box hits both
// alike — and fails if they disagree in either direction: a benchmark
// that cannot reproduce itself within its own bounds cannot judge a
// change.
func runSelfcheck(mk func(trace bool) *ctx, reps int) int {
	a, b := newReport(mk(false)), newReport(mk(false))
	okA, okB := true, true
	for i := 0; i < reps; i++ {
		okA = runSet(mk, a) && okA
		okB = runSet(mk, b) && okB
	}
	printReport(a)
	printReport(b)
	fmt.Println("\nselfcheck: first set as old, second as new")
	worse := printCompare(compareReports(a, b))
	fmt.Println("\nselfcheck: second set as old, first as new")
	worse += printCompare(compareReports(b, a))
	if !okA || !okB || worse > 0 {
		fmt.Printf("selfcheck FAILED: %d row(s) disagree, gates held: %v %v\n", worse, okA, okB)
		return 1
	}
	fmt.Println("selfcheck passed: the two sets agree within every bound and on every exact count")
	return 0
}
