package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"
)

// The two workloads that spawn no process run for a second each and
// must hold every gate; the daemon workloads are exercised by
// -selfcheck, not by go test.
func TestSmokeInProcessWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads for a second each")
	}
	for _, name := range []string{"kv-inproc-write", "verify-fixed"} {
		t.Run(name, func(t *testing.T) {
			w := findWorkload(name)
			if w == nil {
				t.Fatalf("no workload %q", name)
			}
			r, err := w.run(&ctx{seed: 5, rng: rand.New(rand.NewSource(5)), seconds: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range r.misses {
				t.Errorf("gate missed: %s", m)
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
			}
			for _, d := range metricDefs {
				if d.e2e && !(r.m[d.name] > 0) {
					t.Errorf("%s = %v, every end-to-end metric must be measured and positive", d.name, r.m[d.name])
				}
			}
			for k := range r.m {
				if findMetric(k) == nil {
					t.Errorf("metric %q is not in metricDefs", k)
				}
			}
		})
	}
}

// The same seed gives the same inputs, another seed other inputs.
func TestInputsFollowSeed(t *testing.T) {
	keys := func(seed int64) []string {
		k, _ := kvKeysFor(rand.New(rand.NewSource(seed)), 8)
		return k
	}
	a, b, c := keys(1), keys(1), keys(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 gave %q then %q", a[i], b[i])
		}
	}
	if a[0] == c[0] {
		t.Errorf("seeds 1 and 2 gave the same first key %q", a[0])
	}
	h1 := genCorpus(rand.New(rand.NewSource(1)))
	h2 := genCorpus(rand.New(rand.NewSource(1)))
	bad := 0
	for i := range h1 {
		if len(h1[i].h) != corpusOps || len(h1[i].h) != len(h2[i].h) || h1[i].want != h2[i].want {
			t.Fatalf("corpus history %d differs between two builds from one seed", i)
		}
		if !h1[i].want {
			bad++
		}
	}
	if bad == 0 || bad == len(h1) {
		t.Errorf("corpus has %d non-linearizable histories of %d; want a mix", bad, len(h1))
	}
}

// BENCHMARK.json and the tables in this package say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated here", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.e2e {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2e, true)
	check("per_layer", bj.PerLayer, layer, false)
}
