package main

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// hist is the one latency histogram every workload records into:
// log-spaced buckets (64 linear sub-buckets per power of two), so a
// reported quantile is within 2 % of the recorded value at any
// magnitude, and histograms of several connections merge by adding
// counts. Values are nanoseconds. Not safe for concurrent use: each
// connection owns one and they are merged after the run.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6 // 64 sub-buckets per octave: a bucket is at most 1.6 % wide
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// histIndex maps a value to its bucket. Values below histSub are
// exact; above, the top histSubBits bits after the leading one select
// the sub-bucket.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // >= 0
	return (exp+1)*histSub + int(uint64(v)>>uint(exp))&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/histSub - 1)
	l := uint64(histSub+i%histSub) << exp
	return float64(l), float64(l + uint64(1)<<exp)
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) count() uint64 { return h.n }

// quantile returns the q-quantile (nearest rank) in nanoseconds, 0 for
// an empty histogram. Inside the bucket that holds the rank the value
// is interpolated by rank, so quantiles of two runs differ even when
// they fall in one bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c > rank {
			lo, hi := histBounds(i)
			return min(lo+(hi-lo)*(float64(rank-seen)+0.5)/float64(c), float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// tailQuantile picks the highest percentile of p90, p99, p99.9, p99.99
// that still has at least ten samples beyond it — the sample-count
// rule every printed timing follows; ok is false when even p90 does
// not qualify (fewer than 100 samples), and only the median is quoted
// then.
func tailQuantile(n uint64) (q float64, ok bool) {
	for oneIn := uint64(10); oneIn <= 10000 && n/oneIn >= 10; oneIn *= 10 {
		q, ok = 1-1/float64(oneIn), true
	}
	return q, ok
}

// String renders "p50=… p99=… n=…" under the sample-count rule.
func (h *hist) String() string {
	if h.n == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.1fµs", h.us(0.5))
	if q, ok := tailQuantile(h.n); ok {
		s += fmt.Sprintf(" p%g=%.1fµs", q*100, h.us(q))
	}
	return s + fmt.Sprintf(" n=%d", h.n)
}

// median returns the median of xs (mean of the middle pair for an even
// count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// buckets holds the work completed in each one-second bucket of the
// measured window, so throughput can be reported as the median bucket:
// one scheduler stall on a shared VM then costs one bucket, not the
// mean. An operation's one unit of work is spread evenly over the time
// it was in service, so a bucket holds fractions of the operations that
// straddle its edges and a slow workload (40 jobs a second) is not
// rounded to whole operations.
type buckets struct {
	start time.Time
	per   []float64
}

func newBuckets(start time.Time, window time.Duration) *buckets {
	return &buckets{start: start, per: make([]float64, int(window/time.Second))}
}

// add spreads one operation in service over [t0, t1] across the
// buckets it overlaps; the part outside the window is dropped.
func (b *buckets) add(t0, t1 time.Time) {
	lo, hi := t0.Sub(b.start), t1.Sub(b.start)
	if hi <= lo {
		hi = lo + 1
	}
	span := float64(hi - lo)
	for i := max(int(lo/time.Second), 0); i < len(b.per) && time.Duration(i)*time.Second < hi; i++ {
		a, z := max(lo, time.Duration(i)*time.Second), min(hi, time.Duration(i+1)*time.Second)
		if z > a {
			b.per[i] += float64(z-a) / span
		}
	}
}

func (b *buckets) merge(o *buckets) {
	for i, c := range o.per {
		b.per[i] += c
	}
}

// medianRate is the median one-second bucket, in operations per second.
func (b *buckets) medianRate() float64 { return median(b.per) }
