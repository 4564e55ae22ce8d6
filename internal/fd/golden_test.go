package fd

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"distbasics/internal/amp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/detector_trace.golden from this tree's Detector")

// tracedDetector hosts one Detector and writes down everything a peer or
// a caller can observe of it: each heartbeat and grant it sends (time,
// seq), each suspicion flip, each leader change, each lease transition.
type tracedDetector struct {
	det  *Detector
	log  *strings.Builder
	prev []bool
}

// tracedCtx records the detector's sends on their way to the simulator.
type tracedCtx struct {
	amp.Context
	log *strings.Builder
}

func (c tracedCtx) Broadcast(msg amp.Message) {
	fmt.Fprintf(c.log, "t=%d p%d broadcast %T%v\n", c.Now(), c.ID(), msg, msg)
	c.Context.Broadcast(msg)
}

func (c tracedCtx) Send(to int, msg amp.Message) {
	fmt.Fprintf(c.log, "t=%d p%d send->%d %T%v\n", c.Now(), c.ID(), to, msg, msg)
	c.Context.Send(to, msg)
}

func (p *tracedDetector) flips(ctx amp.Context) {
	now := p.det.Suspects()
	for i := range now {
		if p.prev != nil && now[i] != p.prev[i] {
			fmt.Fprintf(p.log, "t=%d p%d suspects[%d]=%v\n", ctx.Now(), ctx.ID(), i, now[i])
		}
	}
	p.prev = now
}

func (p *tracedDetector) Init(ctx amp.Context) {
	id := ctx.ID()
	p.det.OnLeaderChange = func(l int, at amp.Time) { fmt.Fprintf(p.log, "t=%d p%d leader=%d\n", at, id, l) }
	p.det.OnLeaseChange = func(held bool, at amp.Time) { fmt.Fprintf(p.log, "t=%d p%d lease=%v\n", at, id, held) }
	p.det.Init(tracedCtx{ctx, p.log})
	p.flips(ctx)
}

func (p *tracedDetector) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	p.det.OnMessage(tracedCtx{ctx, p.log}, from, msg)
	p.flips(ctx)
}

func (p *tracedDetector) OnTimer(ctx amp.Context, id int) {
	p.det.OnTimer(tracedCtx{ctx, p.log}, id)
	p.flips(ctx)
}

// TestDetectorTraceGolden pins Detector's observable behaviour bit for
// bit: 24 seeds of chaotic-then-bounded delays with leases on and the
// first leader crashing after GST, each seed's full trace hashed and
// compared with the digest recorded before fd's heartbeat loops were
// folded into this one (go test ./internal/fd -run Golden -update
// rewrites the file; only a deliberate protocol change should).
func TestDetectorTraceGolden(t *testing.T) {
	const n, seeds, path = 4, 24, "testdata/detector_trace.golden"
	var got strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		var log strings.Builder
		procs := make([]amp.Process, n)
		for i := range procs {
			d := NewDetector(n)
			d.LeaseTTL = 40
			procs[i] = &tracedDetector{det: d, log: &log}
		}
		sim := amp.NewSim(procs, amp.WithSeed(seed),
			amp.WithDelay(amp.GSTDelay{GST: 400, BeforeMin: 1, BeforeMax: 50, AfterMin: 1, AfterMax: 4}))
		sim.CrashAt(0, 900)
		sim.Run(2_500)
		if !strings.Contains(log.String(), "=true") || !strings.Contains(log.String(), "lease=false") {
			t.Fatalf("seed %d: trace has no suspicion or no lease loss; the scenario pins nothing", seed)
		}
		fmt.Fprintf(&got, "seed %d lines %d sha256 %x\n", seed, strings.Count(log.String(), "\n"), sha256.Sum256([]byte(log.String())))
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("Detector's observable trace moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
