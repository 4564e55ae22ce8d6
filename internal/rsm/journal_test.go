package rsm

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
)

// TestApplyIdempotent replays a TO delivery twice — the duplicate a
// retransmitted decide can produce over an at-least-once transport —
// and checks the command is applied exactly once.
func TestApplyIdempotent(t *testing.T) {
	nd := NewNode(3)
	e := Entry{ID: rbcast.MsgID{Sender: 1, Seq: 0}, Payload: Command{Op: "put", Key: "x", Val: 1}}
	nd.apply(e, 5)
	nd.apply(e, 6) // duplicate delivery
	if got := nd.Len(); got != 1 {
		t.Fatalf("duplicate delivery applied twice: %d applied entries, want 1", got)
	}
	if v := nd.Get("x"); v != 1 {
		t.Fatalf("Get(x) = %v, want 1", v)
	}
	// A different entry still applies.
	nd.apply(Entry{ID: rbcast.MsgID{Sender: 1, Seq: 1}, Payload: Command{Op: "put", Key: "x", Val: 2}}, 7)
	if got := nd.Len(); got != 2 {
		t.Fatalf("fresh entry after duplicate: %d applied entries, want 2", got)
	}
}

// TestDuplicateSlotDecide feeds the same slot decision to the TO layer
// twice — as a tbDecided answer (to a fetch or to a ballot for the slot)
// or a re-ballot's decide can deliver it after the first — and decides
// its entry again in the next slot. Whatever order the decides arrive
// in, each entry is applied once: no model reaches either dedup, so
// this test is what keeps them.
func TestDuplicateSlotDecide(t *testing.T) {
	e := Entry{ID: rbcast.MsgID{Sender: 0, Seq: 0}, Payload: Command{Op: "put", Key: "k", Val: "v"}}
	f := Entry{ID: rbcast.MsgID{Sender: 1, Seq: 0}, Payload: Command{Op: "put", Key: "k", Val: "w"}}
	s0, s1 := batch{e}, batch{e, f}
	for _, order := range [][]int{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}} {
		nd := NewNode(3)
		for i, s := range order {
			nd.TO.onSlotDecide(s, []batch{s0, s1}[s], amp.Time(10+i))
		}
		if got := nd.Len(); got != 2 || nd.Get("k") != "w" {
			t.Errorf("decides of slots %v applied %d entries (k = %v), want 2 (k = w)", order, got, nd.Get("k"))
		}
	}
}

// TestJournalRecovery runs a cluster with journaling on node 0,
// "kills" it (drops the node and closes its journal), rebuilds from the
// reopened journal, and checks state and sequence numbers survive.
func TestJournalRecovery(t *testing.T) {
	const n = 3
	path := filepath.Join(t.TempDir(), "node0.journal")
	j, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]amp.Process, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var opts []NodeOption
		if i == 0 {
			opts = append(opts, WithJournal(j))
		}
		nodes[i] = NewNode(n, opts...)
		procs[i] = nodes[i].Stack
	}
	sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim.Schedule(10, func() {
		nodes[0].Submit(nodes[0].Ctx(), Command{Op: "put", Key: "a", Val: 1})
	})
	sim.Schedule(500, func() {
		nodes[0].Submit(nodes[0].Ctx(), Command{Op: "put", Key: "b", Val: 2})
	})
	sim.Run(20_000)
	if nodes[0].Len() != 2 {
		t.Fatalf("pre-crash node applied %d entries, want 2", nodes[0].Len())
	}

	j.Close()
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.NextSeq != 2 {
		t.Fatalf("journaled NextSeq = %d, want 2", rec.NextSeq)
	}
	if len(rec.Decides) == 0 {
		t.Fatal("journal recorded no decided slots")
	}

	restarted := NewNode(n, WithJournal(j), WithRecovery(rec))
	if restarted.Len() != 2 {
		t.Fatalf("restarted node replayed %d entries, want 2", restarted.Len())
	}
	if got := restarted.Get("a"); got != 1 {
		t.Fatalf("restarted Get(a) = %v, want 1", got)
	}
	if got := restarted.Get("b"); got != 2 {
		t.Fatalf("restarted Get(b) = %v, want 2", got)
	}
	if restarted.TO.nextSeq != 2 {
		t.Fatalf("restarted nextSeq = %d, want 2 (MsgID reuse!)", restarted.TO.nextSeq)
	}
	// Applied sequences must match the pre-crash replica exactly.
	pre, post := nodes[0].Applied(), restarted.Applied()
	for i := range pre {
		if pre[i].ID != post[i].ID {
			t.Fatalf("replayed order diverges at %d: %v vs %v", i, pre[i].ID, post[i].ID)
		}
	}
}

// TestAcceptorJournaling checks the write-ahead acceptor persistence:
// every promise/accept lands in the journal before the reply leaves.
func TestAcceptorJournaling(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d.journal", i)) }
	journals := make([]*FileJournal, n)
	procs := make([]amp.Process, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		j, _, err := OpenFileJournal(path(i))
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = j
		nodes[i] = NewNode(n, WithJournal(j))
		procs[i] = nodes[i].Stack
	}
	sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 2}))
	sim.Schedule(10, func() {
		nodes[1].Submit(nodes[1].Ctx(), Command{Op: "put", Key: "x", Val: 9})
	})
	sim.Run(20_000)
	for i := 0; i < n; i++ {
		journals[i].Close()
		j, rec, err := OpenFileJournal(path(i))
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		a, ok := rec.Accepts[0]
		if !ok {
			t.Fatalf("node %d journaled no acceptor state for slot 0", i)
		}
		if a.Promised == 0 && a.AcceptedBal == 0 {
			t.Fatalf("node %d journaled empty acceptor triple", i)
		}
	}
}

// TestFileJournalRoundTrip appends through a FileJournal, reopens it,
// and checks the replayed Recovery — including after a torn tail write
// (the kill -9 case).
func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node0.journal")
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextSeq != 0 || len(rec.Accepts) != 0 || len(rec.Decides) != 0 {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	j.SaveSeq(3)
	j.SaveAccept(0, Acceptor{Promised: 5, AcceptedBal: 5, AcceptedVal: batch{{ID: rbcast.MsgID{Sender: 2, Seq: 0}, Payload: Command{Op: "put", Key: "k", Val: "v"}}}})
	j.SaveDecide(0, []Entry{{ID: rbcast.MsgID{Sender: 2, Seq: 0}, Payload: Command{Op: "put", Key: "k", Val: "v"}}})
	j.SaveAccept(1, Acceptor{Promised: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", rec2.NextSeq)
	}
	if a := rec2.Accepts[0]; a.Promised != 5 || a.AcceptedBal != 5 {
		t.Fatalf("slot 0 acceptor = %+v", a)
	}
	if a := rec2.Accepts[1]; a.Promised != 2 {
		t.Fatalf("slot 1 acceptor = %+v", a)
	}
	b := rec2.Decides[0]
	if len(b) != 1 || b[0].ID != (rbcast.MsgID{Sender: 2, Seq: 0}) {
		t.Fatalf("slot 0 decide = %+v", b)
	}
	cmd, ok := b[0].Payload.(Command)
	if !ok || cmd.Key != "k" || cmd.Val != "v" {
		t.Fatalf("decide payload = %#v", b[0].Payload)
	}

	// A restarted node rebuilt from the file journal applies the decide.
	restarted := NewNode(3, WithRecovery(rec2))
	if restarted.Get("k") != "v" {
		t.Fatalf("restarted Get(k) = %v, want v", restarted.Get("k"))
	}
}

// TestFileJournalTornTail truncates the journal mid-record (as a
// SIGKILL during a write would) and checks the prefix still replays.
func TestFileJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SaveSeq(1)
	j.SaveDecide(0, []Entry{{ID: rbcast.MsgID{Sender: 0, Seq: 0}, Payload: Command{Op: "put", Key: "a", Val: 1}}})
	j.SaveSeq(2)
	j.Close()

	// Tear the last record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	if rec.NextSeq != 1 {
		t.Fatalf("NextSeq after torn tail = %d, want 1", rec.NextSeq)
	}
	if len(rec.Decides[0]) != 1 {
		t.Fatalf("decide lost to torn tail: %+v", rec.Decides)
	}
	// The journal must still be appendable after a tail truncation.
	j2.SaveSeq(5)
	j2.Close()
	_, rec3, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.NextSeq != 5 {
		t.Fatalf("NextSeq after re-append = %d, want 5", rec3.NextSeq)
	}
}

// TestFileJournalAccountingAndGrowthWarning covers the operational
// surface: Records/Size track appends, survive a reopen (replayed
// records count), exclude a torn tail, and the one-time growth warning
// fires exactly once past FileJournalWarnRecords.
func TestFileJournalAccountingAndGrowthWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acct.journal")
	j, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("fresh journal: records=%d bytes=%d", st.Records, st.Bytes)
	}
	j.SaveSeq(1)
	j.SaveAccept(0, Acceptor{Promised: 1})
	j.SaveDecide(0, []Entry{{ID: rbcast.MsgID{Sender: 0, Seq: 0}, Payload: Command{Op: "put", Key: "a", Val: 1}}})
	if got := j.Stats().Records; got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
	sz := j.Stats().Bytes
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sz != fi.Size() {
		t.Fatalf("Stats().Bytes = %d, file is %d", sz, fi.Size())
	}
	j.Close()

	// Reopen: replayed records are counted; a torn tail is not.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 1, 2}) // length prefix promising 9 bytes, body torn after 2
	f.Close()
	j2, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Records != 3 || st.Bytes != sz {
		t.Fatalf("reopened: records=%d bytes=%d, want 3/%d", st.Records, st.Bytes, sz)
	}

	// Growth warning: lower the threshold, capture log output, confirm
	// exactly one warning however many appends follow.
	old := FileJournalWarnRecords
	FileJournalWarnRecords = 4
	defer func() { FileJournalWarnRecords = old }()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)
	for i := 0; i < 10; i++ {
		j2.SaveSeq(i)
	}
	warnings := strings.Count(buf.String(), "no compaction")
	if warnings != 1 {
		t.Fatalf("growth warning fired %d times, want exactly 1:\n%s", warnings, buf.String())
	}
	if !strings.Contains(buf.String(), path) {
		t.Fatalf("warning does not name the journal:\n%s", buf.String())
	}
}
