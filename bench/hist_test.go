package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// A recorded value comes back within 2 % at every magnitude.
func TestHistBucketError(t *testing.T) {
	for v := int64(1); v < int64(time.Hour); v = v*21/20 + 1 {
		var h hist
		h.record(time.Duration(v))
		if got := h.quantile(0.5); math.Abs(got-float64(v)) > 0.02*float64(v)+0.5 {
			t.Fatalf("recorded %d ns, quantile says %.1f", v, got)
		}
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("%d ns landed in bucket [%v,%v)", v, lo, hi)
		}
	}
}

// Quantiles of a merged histogram match the exact quantiles of the
// pooled samples within the bucket error.
func TestHistQuantileAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all hist
	var exact []float64
	for i := 0; i < 20000; i++ {
		v := time.Duration(math.Exp(rng.Float64()*12) * 100) // 100 ns .. 16 ms, log-uniform
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
		exact = append(exact, float64(v))
	}
	a.merge(&b)
	sort.Float64s(exact)
	if a.count() != 20000 || a.count() != all.count() {
		t.Fatalf("merged count %d", a.count())
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		if got := a.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, want)
		}
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("q%.3f differs between merged and directly recorded", q)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

// Only a percentile with at least ten samples beyond it is quoted.
func TestTailQuantileSampleRule(t *testing.T) {
	cases := []struct {
		n    uint64
		q    float64
		some bool
	}{
		{2, 0, false}, {99, 0, false},
		{100, 0.90, true}, {999, 0.90, true},
		{1000, 0.99, true}, {9999, 0.99, true},
		{10000, 0.999, true}, {100000, 0.9999, true}, {10000000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if ok != c.some || (ok && q != c.q) {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, q*100, ok, c.q*100, c.some)
		}
	}
	var h hist
	for i := 0; i < 50; i++ {
		h.record(time.Millisecond)
	}
	if s := h.String(); !strings.HasSuffix(s, "n=50") || strings.Count(s, "p") != 1 {
		t.Errorf("50 samples must print the median and n only, got %q", s)
	}
	for i := 0; i < 950; i++ {
		h.record(time.Millisecond)
	}
	if s := h.String(); !strings.Contains(s, "p99=") || !strings.HasSuffix(s, "n=1000") {
		t.Errorf("1000 samples must print p50, p99 and n, got %q", s)
	}
}

// The median one-second bucket ignores one stalled second, and an
// operation that straddles a bucket edge is split between the buckets.
func TestBucketsMedianRate(t *testing.T) {
	start := time.Unix(1000, 0)
	b := newBuckets(start, 5*time.Second)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	for s := 0; s < 5; s++ {
		n := 100
		if s == 2 {
			n = 3 // the stall
		}
		for i := 0; i < n; i++ {
			b.add(at(s*1000+i*1000/n), at(s*1000+(i+1)*1000/n))
		}
	}
	if got := b.medianRate(); got != 100 {
		t.Errorf("median bucket = %v, want 100 despite the stalled second", got)
	}
	mean := 0.0
	for _, c := range b.per {
		mean += c / 5
	}
	if mean >= 100 {
		t.Errorf("mean %v should show the stall the median hides", mean)
	}

	b = newBuckets(start, 2*time.Second)
	b.add(at(750), at(1250)) // half in each bucket
	b.add(at(-500), at(500)) // half before the window
	b.add(at(1900), at(2100))
	if b.per[0] != 1 || b.per[1] != 1 {
		t.Errorf("straddling operations split as %v, want [1 1]", b.per)
	}
	o := newBuckets(start, 2*time.Second)
	o.add(at(100), at(200))
	b.merge(o)
	if b.per[0] != 2 {
		t.Errorf("merge: bucket 0 = %v, want 2", b.per[0])
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}
