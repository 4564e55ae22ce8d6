package main

import (
	"fmt"
	"math/rand"
	"time"
)

// ctx is what one workload run is given.
type ctx struct {
	env     *env
	seed    int64
	rng     *rand.Rand // seeded from seed: keys, histories, corpora
	seconds time.Duration
	trace   bool // also run the per-layer probes and the traced pass

	spansOut string // traced pass: write the recorded spans to <spansOut>.*.json at the end
}

// result is what one workload run produced: every metric it measured
// by name, the contract's attempted/failed counts, and the correctness
// gates it missed.
type result struct {
	m         map[string]float64
	attempted int64
	failed    int64
	misses    []string
	notes     []string // human-readable lines, printed to stderr
}

func newResult() *result { return &result{m: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.m[name] = v }

// gate records a correctness miss unless ok.
func (r *result) gate(ok bool, format string, args ...any) {
	if !ok {
		r.misses = append(r.misses, fmt.Sprintf(format, args...))
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a class's operations to attempted/failed.
func (r *result) count(c *class) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.set("fail_share", float64(r.failed)/float64(max(r.attempted, 1)))
}

// throughput reports a class's median one-second bucket under name.
func (r *result) throughput(name string, c *class) {
	r.set(name, c.bk.medianRate())
	r.notef("%-22s %.1f /s (median of %d one-second buckets, %d ops)", name, r.m[name], len(c.bk.per), c.lat.count())
}

// latency reports a class's quantiles as <prefix>_p50_us, optionally
// <prefix>_p90_us, and the ungated client.<prefix>_p99_us. The printed
// line follows the sample-count rule and states n.
func (r *result) latency(prefix string, c *class, p90 bool) {
	r.set(prefix+"_p50_us", c.lat.us(0.5))
	if p90 {
		r.set(prefix+"_p90_us", c.lat.us(0.9))
	}
	r.set("client."+prefix+"_p99_us", c.lat.us(0.99))
	r.notef("%-22s %s (p90=%.1fµs)", prefix+" latency", &c.lat, c.lat.us(0.9))
}

// alias copies a workload's own class metrics into the three generic
// end-to-end names the driver gates on every workload.
func (r *result) alias(ops, p50, p90 string) {
	r.set("ops_s", r.m[ops])
	r.set("p50_us", r.m[p50])
	r.set("p90_us", r.m[p90])
}
