package amp

import (
	"testing"

	"distbasics/internal/splitmix"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	// JitterPct 1 spreads by a span that rounds to 0 below 100 ticks;
	// a negative one means no jitter. Either way the curve is exact.
	for _, jitter := range []int{1, -1} {
		rng := splitmix.New(7)
		want := []Time{10, 20, 40, 80, 80, 80}
		for i, w := range want {
			if got := Backoff(10, 80, jitter, i+1, &rng); got != w {
				t.Fatalf("JitterPct %d: Backoff(%d) = %d, want %d", jitter, i+1, got, w)
			}
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rng := splitmix.New(42)
	seen := map[Time]bool{}
	for attempt := 1; attempt <= 6; attempt++ {
		base := min(Time(100<<(attempt-1)), 800)
		span := int64(base) * 25 / 100
		for trial := 0; trial < 200; trial++ {
			d := Backoff(100, 800, 25, attempt, &rng)
			if int64(d) < int64(base)-span || int64(d) > int64(base)+span {
				t.Fatalf("Backoff(%d) = %d outside [%d, %d]", attempt, d, int64(base)-span, int64(base)+span)
			}
			seen[d] = true
		}
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays; not jittering", len(seen))
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a, b := splitmix.New(5), splitmix.New(5)
	for i := 1; i <= 10; i++ {
		if x, y := Backoff(20, 400, 25, i, &a), Backoff(20, 400, 25, i, &b); x != y {
			t.Fatalf("same seed diverged at attempt %d: %d vs %d", i, x, y)
		}
	}
}
