package rsm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
)

// stateFingerprint renders a replica's applied state deterministically
// (sorted keys, gob-encoded pairs) so two recoveries can be compared
// byte for byte.
func stateFingerprint(t *testing.T, nd *Node) []byte {
	t.Helper()
	keys := make([]string, 0, len(nd.state))
	for k := range nd.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, k := range keys {
		if err := enc.Encode(k); err != nil {
			t.Fatal(err)
		}
		v := nd.state[k]
		if err := enc.Encode(&v); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&buf, "applies=%d deliver=%d", nd.applies, nd.TO.nextDeliver)
	return buf.Bytes()
}

// feedDecide journals and decides one slot the way the mux's decide
// path would, driving the node's apply pipeline without a simulator.
func feedDecide(nd *Node, j Journal, slot int, entries []Entry) {
	if j != nil {
		j.SaveDecide(slot, entries)
	}
	nd.TO.onSlotDecide(slot, batch(entries), 0)
}

// putEntry builds a put-command entry with a unique (sender, seq) id.
func putEntry(sender, seq int, key string, val any) Entry {
	return Entry{
		ID:      rbcast.MsgID{Sender: sender, Seq: seq},
		Payload: Command{Op: "put", Key: key, Val: val},
	}
}

// TestSnapshotCompactionEquivalence is the acceptance fence for the
// compaction tentpole: one cluster, two journaled replicas — one
// auto-compacting, one append-only — run the same history; both are
// then "killed" and rebuilt from their journals, and the compacted
// replica's recovered applied state must be byte-identical to the full
// replay's, while its journal is strictly smaller than the uncompacted
// history.
func TestSnapshotCompactionEquivalence(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	jc, rec0, err := OpenFileJournal(filepath.Join(dir, "compacting.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jf, rec1, err := OpenFileJournal(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*Node, n)
	procs := make([]amp.Process, n)
	nodes[0] = NewNode(n, WithJournal(jc), WithRecovery(rec0), WithCompaction(24, 0))
	nodes[1] = NewNode(n, WithJournal(jf), WithRecovery(rec1))
	nodes[2] = NewNode(n)
	for i := 0; i < n; i++ {
		procs[i] = nodes[i].Stack
	}
	sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 2}))
	for wave := 0; wave < 8; wave++ {
		wave := wave
		sim.Schedule(amp.Time(10+wave*400), func() {
			for i := 0; i < 12; i++ {
				key := fmt.Sprintf("k%d", (wave*12+i)%17)
				nodes[2].Submit(nodes[2].Ctx(), Command{Op: "put", Key: key, Val: wave*100 + i})
			}
		})
	}
	sim.Run(100_000)

	const want = 8 * 12
	for i := 0; i < 2; i++ {
		if nodes[i].Len() != want {
			t.Fatalf("node %d applied %d, want %d", i, nodes[i].Len(), want)
		}
	}
	if st := jc.Stats(); st.Snapshots == 0 || st.Records >= st.LifeRecords {
		t.Fatalf("journal not truncated: %+v", st)
	}
	fullRecs := jf.Stats().Records
	jc.Close()
	jf.Close()

	// Kill -9 both: rebuild from disk.
	jc2, recC, err := OpenFileJournal(filepath.Join(dir, "compacting.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jc2.Close()
	jf2, recF, err := OpenFileJournal(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf2.Close()
	if recC.Snap == nil {
		t.Fatal("compacted journal recovered without a snapshot")
	}
	if recF.Snap != nil {
		t.Fatal("append-only journal unexpectedly has a snapshot")
	}
	if got := jc2.Stats().Records; got >= fullRecs {
		t.Fatalf("restarted compacted journal (%d records) not smaller than uncompacted history (%d)",
			got, fullRecs)
	}

	fromSnap := NewNode(n, WithRecovery(recC))
	fromFull := NewNode(n, WithRecovery(recF))
	if fromSnap.Len() != want || fromFull.Len() != want {
		t.Fatalf("recovered applies: snapshot=%d full=%d, want %d", fromSnap.Len(), fromFull.Len(), want)
	}
	if a, b := stateFingerprint(t, fromSnap), stateFingerprint(t, fromFull); !bytes.Equal(a, b) {
		t.Fatalf("snapshot+suffix recovery diverges from full replay:\n%q\nvs\n%q", a, b)
	}
	// The recovered sequence number must not regress (MsgID reuse).
	if fromSnap.TO.nextSeq != nodes[0].TO.nextSeq {
		t.Fatalf("recovered nextSeq = %d, want %d", fromSnap.TO.nextSeq, nodes[0].TO.nextSeq)
	}
}

// TestInstallCrashEveryStep arms a simulated SIGKILL at each step of
// the install protocol in turn, reopens the journal from disk after
// every crash, and checks the rebuilt replica always matches the
// pre-crash state — old or new snapshot, never a hybrid — that the
// recovery carries the snapshot exactly when the install passed the
// rename, and that the journal keeps working (new appends, another
// compaction) afterwards.
func TestInstallCrashEveryStep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steps.journal")
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nd := NewNode(3, WithJournal(j), WithRecovery(rec))

	slot, seq := 0, 0
	feed := func(k string, v any) {
		feedDecide(nd, j, slot, []Entry{putEntry(slot%3, seq, k, v)})
		slot++
		seq++
	}
	feed("a", 1)
	feed("b", 2)

	// The tmp step runs first, so no earlier install has left a snapshot
	// behind: a recovered snapshot is this step's.
	steps := []struct {
		step    SnapStep
		crashes bool
		renamed bool // the install got past the rename, its commit point
	}{
		{SnapStepTmp, true, false},
		{SnapStepRename, true, true},
		{SnapStepFresh, true, true},
		{SnapStepNone, false, true},
	}
	gen := 0
	for i, tc := range steps {
		pre := stateFingerprint(t, nd)
		j.SetInstallCrash(tc.step)
		err := nd.Compact()
		if tc.crashes && !errors.Is(err, ErrInstallInterrupted) {
			t.Fatalf("step %v: Compact err = %v, want ErrInstallInterrupted", tc.step, err)
		}
		if !tc.crashes && err != nil {
			t.Fatalf("clean compact failed: %v", err)
		}
		if tc.renamed {
			gen++
		}
		if !tc.crashes {
			// A completed install truncates behind the snapshot.
			if st := j.Stats(); st.Records != 0 || st.Snapshots != 1 || st.Gen != gen {
				t.Fatalf("post-install stats: %+v, want Records 0, Snapshots 1, Gen %d", st, gen)
			}
		}

		// The "process" is dead: reopen from disk and rebuild.
		j.Close()
		j2, rec2, err := OpenFileJournal(path)
		if err != nil {
			t.Fatalf("step %v: reopen after crash: %v", tc.step, err)
		}
		nd2 := NewNode(3, WithJournal(j2), WithRecovery(rec2))
		if post := stateFingerprint(t, nd2); !bytes.Equal(pre, post) {
			t.Fatalf("step %v: recovered state diverges:\npre  %q\npost %q", tc.step, pre, post)
		}
		if (rec2.Snap != nil) != tc.renamed {
			t.Fatalf("step %v: recovered snapshot %v, want one iff the install passed the rename", tc.step, rec2.Snap != nil)
		}
		if st := j2.Stats(); st.Gen != gen {
			t.Fatalf("step %v: reopened at generation %d, want %d", tc.step, st.Gen, gen)
		}
		nd, j = nd2, j2
		// Keep the history moving so each iteration crashes a different
		// install over different state.
		feed(fmt.Sprintf("k%d", i), i*10)
	}

	// The final journal must still be bounded: a last clean compaction
	// truncates everything accumulated above.
	if err := nd.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Records; got != 0 {
		t.Fatalf("post-compaction segment has %d records, want 0", got)
	}
	j.Close()
}

// cloneDir copies every regular file in src to dst, so each corruption
// case in the torn-install table starts from a pristine disk state.
func cloneDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornSnapshotInstallTable mirrors the torn-tail journal test for
// the install protocol: it builds the three interrupted-install disk
// states (tmp written; snapshot renamed; fresh segment in use), then
// truncates the interesting file at every byte boundary — and flips
// every byte of the snapshot header — asserting every recovery lands
// cleanly on the old or new state, never a hybrid, never an error.
func TestTornSnapshotInstallTable(t *testing.T) {
	// Build the pristine pre-install state: two applied keys, then an
	// install interrupted at each protocol step (plus a completed one
	// with a live suffix) in separate directories.
	build := func(t *testing.T, dir string, step SnapStep, suffix bool) {
		path := filepath.Join(dir, "node.journal")
		j, rec, err := OpenFileJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		nd := NewNode(3, WithJournal(j), WithRecovery(rec))
		feedDecide(nd, j, 0, []Entry{putEntry(0, 0, "a", 1)})
		feedDecide(nd, j, 1, []Entry{putEntry(1, 0, "b", 2)})
		j.SetInstallCrash(step)
		if err := nd.Compact(); err != nil && !errors.Is(err, ErrInstallInterrupted) {
			t.Fatal(err)
		}
		if suffix {
			feedDecide(nd, j, 2, []Entry{putEntry(2, 0, "c", 3)})
		}
		j.Close()
	}

	// verify reopens the (possibly corrupted) state and checks the
	// recovered replica is exactly the old or the new state.
	verify := func(t *testing.T, dir, desc string, wantOld, wantNew map[string]any) {
		path := filepath.Join(dir, "node.journal")
		j, rec, err := OpenFileJournal(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", desc, err)
		}
		defer j.Close()
		nd := NewNode(3, WithRecovery(rec))
		match := func(want map[string]any) bool {
			if len(nd.state) != len(want) {
				return false
			}
			for k, v := range want {
				if nd.state[k] != v {
					return false
				}
			}
			return true
		}
		if !match(wantOld) && !match(wantNew) {
			t.Fatalf("%s: recovered hybrid state %v, want %v or %v", desc, nd.state, wantOld, wantNew)
		}
	}

	old := map[string]any{"a": 1, "b": 2}
	cases := []struct {
		name   string
		step   SnapStep
		suffix bool
		target string         // file to corrupt, relative to the journal dir
		after  map[string]any // the "new" acceptable state
	}{
		{"tmp", SnapStepTmp, false, "node.journal.snap.tmp", old},
		{"renamed", SnapStepRename, false, "node.journal.snap", old},
		{"fresh-segment", SnapStepNone, true, "node.journal.seg1", map[string]any{"a": 1, "b": 2, "c": 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pristine := t.TempDir()
			build(t, pristine, tc.step, tc.suffix)
			target := filepath.Join(pristine, tc.target)
			data, err := os.ReadFile(target)
			if err != nil {
				t.Fatalf("expected install artifact %s: %v", tc.target, err)
			}

			// Truncate at every byte boundary.
			for cut := 0; cut <= len(data); cut++ {
				dir := t.TempDir()
				cloneDir(t, pristine, dir)
				if err := os.WriteFile(filepath.Join(dir, tc.target), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				verify(t, dir, fmt.Sprintf("%s truncated at %d/%d", tc.name, cut, len(data)), old, tc.after)
			}

			// Flip every byte of the snapshot files (header and body: the
			// CRC must catch all of it). The fresh segment reuses the
			// record-level torn-tail handling already fenced elsewhere, so
			// only the snapshot files get the full bit-flip sweep.
			if tc.name != "fresh-segment" {
				for i := 0; i < len(data); i++ {
					dir := t.TempDir()
					cloneDir(t, pristine, dir)
					mut := append([]byte(nil), data...)
					mut[i] ^= 0xff
					if err := os.WriteFile(filepath.Join(dir, tc.target), mut, 0o644); err != nil {
						t.Fatal(err)
					}
					verify(t, dir, fmt.Sprintf("%s byte %d flipped", tc.name, i), old, tc.after)
				}
			}
		})
	}
}

// TestUndecodableSnapshotIsKept writes a snapshot whose frame passes
// the magic, length and CRC checks but whose body is not a Snapshot (as
// a renamed or unregistered wire type leaves it). Its install
// committed and deleted the segments it covers, so falling back to the
// suffix would silently lose the prefix: the open must fail and leave
// the file for the operator.
func TestUndecodableSnapshotIsKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.journal")
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nd := NewNode(3, WithJournal(j), WithRecovery(rec))
	feedDecide(nd, j, 0, []Entry{putEntry(0, 0, "a", 1)})
	if err := nd.Compact(); err != nil {
		t.Fatal(err)
	}
	feedDecide(nd, j, 1, []Entry{putEntry(1, 0, "b", 2)})
	j.Close()

	body := []byte("checksummed, but not a gob-encoded Snapshot")
	frame := append([]byte(nil), snapMagic[:]...)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	if err := os.WriteFile(path+".snap", frame, 0o644); err != nil {
		t.Fatal(err)
	}

	if j, _, err := OpenFileJournal(path); err == nil {
		j.Close()
		t.Fatal("journal with an undecodable committed snapshot opened without error")
	}
	if got, err := os.ReadFile(path + ".snap"); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("snapshot file not kept as written (err %v)", err)
	}
}

// TestFileJournalDegradedOnWriteError forces append failures (writes
// against a closed file) and checks they are counted, logged once, and
// surfaced through Stats — while the valid prefix stays recoverable.
func TestFileJournalDegradedOnWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "degraded.journal")
	j, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SaveSeq(1)
	j.SaveDecide(0, []Entry{putEntry(0, 0, "a", 1)})
	if st := j.Stats(); st.Degraded || st.WriteErrs != 0 {
		t.Fatalf("healthy journal reports degraded: %+v", st)
	}

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	j.Close() // every write below fails
	j.SaveSeq(2)
	j.SaveAccept(1, Acceptor{Promised: 3})

	st := j.Stats()
	if st.WriteErrs != 2 || !st.Degraded {
		t.Fatalf("stats after failed writes: %+v, want WriteErrs=2 Degraded=true", st)
	}
	if !j.Degraded() {
		t.Fatal("Degraded() = false after write errors")
	}
	if st.Records != 2 {
		t.Fatalf("failed writes counted as records: %d, want 2", st.Records)
	}
	if got := strings.Count(buf.String(), "append failed"); got != 1 {
		t.Fatalf("append-failure warning logged %d times, want once:\n%s", got, buf.String())
	}

	// The valid prefix still replays.
	_, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextSeq != 1 || len(rec.Decides[0]) != 1 {
		t.Fatalf("valid prefix lost: %+v", rec)
	}
}

// TestAutoCompactionThreshold checks WithCompaction triggers on the
// record threshold from inside the decide path, resets the segment,
// and keeps the growth warning permanently silent.
func TestAutoCompactionThreshold(t *testing.T) {
	oldWarn := FileJournalWarnRecords
	FileJournalWarnRecords = 16
	defer func() { FileJournalWarnRecords = oldWarn }()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	path := filepath.Join(t.TempDir(), "auto.journal")
	j, rec, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nd := NewNode(3, WithJournal(j), WithRecovery(rec), WithCompaction(8, 0))
	for s := 0; s < 100; s++ {
		feedDecide(nd, j, s, []Entry{putEntry(s%3, s/3, fmt.Sprintf("k%d", s%5), s)})
	}
	st := j.Stats()
	if st.Snapshots == 0 {
		t.Fatal("threshold never triggered a compaction")
	}
	if st.Records >= 100 || st.Gen != int(st.Snapshots) {
		t.Fatalf("stats after auto-compaction: %+v", st)
	}
	if st.LifeRecords != 100 {
		t.Fatalf("lifetime records = %d, want 100", st.LifeRecords)
	}
	if strings.Contains(buf.String(), "no compaction") {
		t.Fatalf("growth warning fired despite compaction:\n%s", buf.String())
	}
	j.Close()

	// Full state survives through snapshot + suffix.
	_, rec2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	nd2 := NewNode(3, WithRecovery(rec2))
	if nd2.Len() != 100 {
		t.Fatalf("recovered %d applies, want 100", nd2.Len())
	}
	if a, b := stateFingerprint(t, nd), stateFingerprint(t, nd2); !bytes.Equal(a, b) {
		t.Fatalf("recovered state diverges:\n%q\nvs\n%q", a, b)
	}
}
