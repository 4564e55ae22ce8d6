package mpcons

import (
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/fd"
)

// decideTap hosts a Synod and counts the decide broadcasts it sends. With
// cut set, its first decide broadcast reaches process 1 alone and the
// process crashes in the same instant: a leader dying part-way through.
type decideTap struct {
	*Synod
	sim     **amp.Sim
	cut     bool
	decides int
}

func (d *decideTap) Init(ctx amp.Context) { d.Synod.Init(tapCtx{ctx, d}) }
func (d *decideTap) OnMessage(ctx amp.Context, from int, msg amp.Message) {
	d.Synod.OnMessage(tapCtx{ctx, d}, from, msg)
}
func (d *decideTap) OnTimer(ctx amp.Context, id int) { d.Synod.OnTimer(tapCtx{ctx, d}, id) }

type tapCtx struct {
	amp.Context
	tap *decideTap
}

func (c tapCtx) Broadcast(msg amp.Message) {
	if _, ok := msg.(synDecide); ok {
		c.tap.decides++
		if c.tap.cut {
			c.Context.Send(1, msg)
			(*c.tap.sim).CrashAt(c.ID(), c.Now())
			return
		}
	}
	c.Context.Broadcast(msg)
}

// runTappedSynod runs n Synod processes for until ticks, process 0's
// decide cut if cut is set, and returns each one's decision and tap.
func runTappedSynod(n int, cut bool, until amp.Time) ([]decision, []*decideTap) {
	decs := make([]decision, n)
	taps := make([]*decideTap, n)
	procs := make([]amp.Process, n)
	var sim *amp.Sim
	for i := range procs {
		det := fd.NewDetector(n)
		syn := NewSynod(10*(i+1), det, func(v any, at amp.Time) { decs[i] = decision{val: v, at: at, ok: true} })
		taps[i] = &decideTap{Synod: syn, sim: &sim, cut: cut && i == 0}
		procs[i] = amp.NewStack(det, taps[i])
	}
	sim = amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim.Run(until)
	return decs, taps
}

// TestSynodOrphanedDecideIsRelayed: the leader's decide reaches one of
// four processes, then the leader crashes. Ω then elects that process,
// which is decided and so runs no ballot: only its relay, sent once Ω
// no longer names the process it learned the decision from, brings the
// other two to a decision.
func TestSynodOrphanedDecideIsRelayed(t *testing.T) {
	decs, taps := runTappedSynod(4, true, 20_000)
	if taps[0].decides != 1 || !decs[1].ok {
		t.Fatalf("process 0 sent %d decides and process 1 decided=%v, want the one cut broadcast to reach it", taps[0].decides, decs[1].ok)
	}
	for i := 1; i < 4; i++ {
		switch d := decs[i]; {
		case !d.ok:
			t.Errorf("process %d undecided after the leader crashed mid-decide", i)
		case d.val != decs[1].val:
			t.Errorf("process %d decided %v, process 1 %v", i, d.val, decs[1].val)
		}
	}
	if got := taps[1].decides; got != 1 {
		t.Errorf("process 1 relayed the decision %d times, want once", got)
	}
	t.Logf("cut decide at %d; relayed decisions at %d and %d", decs[1].at-2, decs[2].at, decs[3].at)
}

// TestSynodHealthyDecideIsNotRelayed: with the deciding leader alive, its
// one broadcast is every decide frame of the instance — n, not n².
func TestSynodHealthyDecideIsNotRelayed(t *testing.T) {
	decs, taps := runTappedSynod(4, false, 20_000)
	for i, d := range decs {
		if !d.ok {
			t.Fatalf("process %d undecided", i)
		}
	}
	for i, tp := range taps {
		want := 0
		if i == 0 {
			want = 1 // the leader
		}
		if tp.decides != want {
			t.Errorf("process %d broadcast %d decides, want %d", i, tp.decides, want)
		}
	}
}

// TestIsBallot: only the proposer's two ballot messages are ballots;
// acceptor replies, decisions and foreign messages are not.
func TestIsBallot(t *testing.T) {
	for _, row := range []struct {
		msg  amp.Message
		want bool
	}{
		{synPrepare{Bal: 1}, true},
		{synAccept{Bal: 1, Val: "v"}, true},
		{synPromise{Bal: 1}, false},
		{synAccepted{Bal: 1}, false},
		{synReject{Promised: 2}, false},
		{synDecide{Val: "v"}, false},
		{boDecide{}, false},
		{nil, false},
	} {
		if got := IsBallot(row.msg); got != row.want {
			t.Errorf("IsBallot(%#v) = %v, want %v", row.msg, got, row.want)
		}
	}
}
