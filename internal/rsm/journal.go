package rsm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"distbasics/internal/fd"
	"distbasics/internal/mpcons"
	"distbasics/internal/rbcast"
)

// Crash-recovery for a replica (the "kill -9 survival" half of the
// real-transport runtime): the three pieces of state that must outlive
// a process are journaled synchronously as they change, and a restarted
// node replays them before rejoining.
//
//   - The per-slot Paxos acceptor triple (promised, acceptedBal,
//     acceptedVal). Forgetting it is a SAFETY bug: a restarted acceptor
//     could promise/accept in ways that let two ballots choose different
//     values for the same slot.
//   - Decided slots. Forgetting them only costs re-learning, but
//     replaying them locally rebuilds the KV state and keeps the
//     replica's applied sequence consistent with its own history.
//   - The next TO-broadcast sequence number. Reusing a (sender, seq)
//     MsgID after restart would collide with a pre-crash command.
//
// FileJournal is the one implementation, in the daemons and in the
// scenario models alike. It is bounded by snapshot compaction (see
// snapshot.go): it truncates its history behind an installed Snapshot,
// and recovery seeds from the snapshot plus the suffix segment.

// Acceptor is the journaled Paxos acceptor triple for one slot.
type Acceptor struct {
	Promised    int
	AcceptedBal int
	AcceptedVal any
}

// Journal receives replica persistence events. Implementations must
// complete each Save before returning (write-ahead discipline: the
// reply that depends on the state must not be sent first).
type Journal interface {
	// SaveSeq records the next TO-broadcast sequence number.
	SaveSeq(next int)
	// SaveAccept records slot's acceptor triple.
	SaveAccept(slot int, a Acceptor)
	// SaveDecide records slot's decided batch.
	SaveDecide(slot int, b []Entry)
}

// Recovery is the replayable state a Journal reconstructs: an optional
// snapshot (the compacted prefix) plus the record suffix written after
// it. With Snap == nil the records are the full history.
type Recovery struct {
	NextSeq int
	Accepts map[int]Acceptor
	Decides map[int][]Entry
	Snap    *Snapshot
}

// slots returns the decided slot numbers in order.
func (rec *Recovery) slots() []int {
	out := make([]int, 0, len(rec.Decides))
	for s := range rec.Decides {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// journalRec is one record of the on-disk journal stream.
type journalRec struct {
	Kind  uint8 // 1 = seq, 2 = accept, 3 = decide
	Slot  int
	Seq   int
	Acc   Acceptor
	Batch []Entry
}

// FileJournal is a Journal backed by one active segment file plus an
// optional snapshot file. Each record is a length-prefixed,
// self-contained gob stream ([u32 BE len][gob bytes]) — independently
// decodable, so a reopened journal can append without colliding with
// the previous writer's gob type state, and a SIGKILL loses at most the
// record being written; OpenFileJournal tolerates that truncated tail
// by dropping everything from the first short or undecodable record on.
// It deliberately does not fsync appends: kill -9 leaves OS-buffered
// writes intact, and the e2e harness only needs process-crash (not
// power-loss) durability. Snapshot installs DO fsync — the rename is
// the commit point and must not reorder past the data it covers.
//
// On-disk layout for a journal at path P:
//
//	P            segment, generation 0
//	P.seg<g>     segment, generation g >= 1
//	P.snap       installed snapshot (names the generation it precedes)
//	P.snap.tmp   in-progress install; ignored and deleted at open
type FileJournal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	gen       int
	records   int64 // valid records in the active segment
	size      int64 // bytes of valid records (prefix included)
	lifeRecs  int64 // records replayed at open + appended since, across installs
	lifeBytes int64
	snapshots int64 // installs completed by this instance
	snapBytes int64 // size of the last installed snapshot file
	writeErrs int64 // failed appends (see Degraded)
	warned    bool  // growth warning fired (once per segment)
	errLogged bool  // append-failure warning fired (once per open)
	crash     SnapStep
}

// FileJournalWarnRecords is the record count past which a FileJournal
// logs a one-time growth warning for its active segment. With snapshot
// compaction enabled (rsm.WithCompaction) the segment is truncated
// long before this; the warning now marks a journal whose compaction is
// disabled or misconfigured. A var, not a const, so tests can exercise
// the warning without writing 2^17 records.
var FileJournalWarnRecords int64 = 1 << 17

// segPath returns the segment file for generation g of the journal at
// path (generation 0 is path itself, for compatibility with journals
// written before compaction existed).
func segPath(path string, g int) string {
	if g == 0 {
		return path
	}
	return path + ".seg" + strconv.Itoa(g)
}

// segGens lists the generations of all existing segment files for
// path, sorted ascending.
func segGens(path string) []int {
	var gens []int
	if _, err := os.Stat(path); err == nil {
		gens = append(gens, 0)
	}
	matches, _ := filepath.Glob(path + ".seg*")
	for _, m := range matches {
		g, err := strconv.Atoi(strings.TrimPrefix(m, path+".seg"))
		if err == nil && g > 0 {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	return gens
}

// OpenFileJournal opens (creating if needed) the journal at path,
// resolves any interrupted snapshot install, replays the snapshot and
// its suffix segment into a Recovery, and returns the journal
// positioned for appending. A SIGKILL at any point of a prior install
// recovers to either the pre-install or the post-install state:
//
//   - a leftover P.snap.tmp (whole or torn) is deleted unread;
//   - a valid P.snap selects its generation's segment as the suffix
//     (created empty if the crash preceded it) and every other segment
//     is deleted — their contents predate the snapshot;
//   - a torn or corrupt P.snap is deleted and all surviving segments
//     replay in generation order (the pre-install state);
//   - a P.snap whose frame checks out but whose body does not decode
//     (a renamed or unregistered type) is an error, and the file stays:
//     its install committed, so the older segments are already gone.
func OpenFileJournal(path string) (*FileJournal, *Recovery, error) {
	RegisterWire(gob.Register) // journal payloads ride through `any` fields
	_ = os.Remove(path + ".snap.tmp")

	var snap *Snapshot
	if data, err := os.ReadFile(path + ".snap"); err == nil {
		snap, err = decodeSnapshot(data)
		switch {
		case errors.Is(err, errSnapTorn):
			// Corrupt beyond the install protocol's reach (the rename is
			// atomic): fall back to the surviving segments.
			_ = os.Remove(path + ".snap")
		case err != nil:
			return nil, nil, fmt.Errorf("rsm: open snapshot %s.snap: %w", path, err)
		}
	}

	rec := &Recovery{Accepts: map[int]Acceptor{}, Decides: map[int][]Entry{}, Snap: snap}
	j := &FileJournal{path: path}
	gens := segGens(path)

	if snap != nil {
		// Every other segment predates the snapshot; its own generation's
		// (created empty if the crash preceded it) is the suffix.
		for _, g := range gens {
			if g != snap.Gen {
				_ = os.Remove(segPath(path, g))
			}
		}
		gens = []int{snap.Gen}
	}

	// Replay every surviving segment oldest first; the newest stays
	// active for appends.
	if len(gens) == 0 {
		gens = []int{0}
	}
	for _, g := range gens[:len(gens)-1] {
		_, records, valid, err := openSegment(segPath(path, g), rec, false)
		if err != nil {
			return nil, nil, err
		}
		j.lifeRecs += records
		j.lifeBytes += valid
	}
	active := gens[len(gens)-1]
	f, records, valid, err := openSegment(segPath(path, active), rec, true)
	if err != nil {
		return nil, nil, err
	}
	j.gen = active
	j.f, j.records, j.size = f, records, valid
	j.lifeRecs += records
	j.lifeBytes += valid
	j.maybeWarn()
	return j, rec, nil
}

// openSegment opens one segment file and replays its records into rec.
// With active set, the torn/corrupt tail is truncated and the file is
// positioned for appending; otherwise it is closed after replay.
func openSegment(path string, rec *Recovery, active bool) (*os.File, int64, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("rsm: open journal %s: %w", path, err)
	}
	valid := int64(0)
	records := int64(0)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // clean EOF or torn length prefix
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > journalMaxRec {
			break // corrupt length
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(f, buf); err != nil {
			break // torn record body
		}
		var r journalRec
		if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&r); err != nil {
			break // corrupt record body
		}
		valid += 4 + int64(n)
		records++
		switch r.Kind {
		case 1:
			rec.NextSeq = r.Seq
		case 2:
			rec.Accepts[r.Slot] = r.Acc
		case 3:
			rec.Decides[r.Slot] = r.Batch
		}
	}
	if !active {
		f.Close()
		return nil, records, valid, nil
	}
	// Drop any torn/corrupt tail so appends start at a record boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("rsm: truncate journal %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("rsm: seek journal %s: %w", path, err)
	}
	return f, records, valid, nil
}

// journalMaxRec bounds one record (sanity check against corrupt length
// prefixes; far above any real batch).
const journalMaxRec = 16 << 20

func (j *FileJournal) append(r journalRec) {
	var body bytes.Buffer
	body.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&body).Encode(&r); err != nil {
		j.mu.Lock()
		j.noteWriteErr(err)
		j.mu.Unlock()
		return
	}
	buf := body.Bytes()
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	j.mu.Lock()
	defer j.mu.Unlock()
	// A write error (disk full, closed file) cannot be surfaced through
	// the Journal interface mid-protocol; the replica keeps running on
	// its in-memory state, but the failure is counted, logged once, and
	// visible as Degraded through Stats()/stat — a dying disk must show
	// up in operator telemetry long before recovery fails.
	if n, err := j.f.Write(buf); err != nil || n != len(buf) {
		// Best effort: restore the record boundary so a torn write in
		// the middle does not also corrupt the valid prefix at replay.
		_ = j.f.Truncate(j.size)
		_, _ = j.f.Seek(j.size, io.SeekStart)
		j.noteWriteErr(err)
		return
	}
	j.records++
	j.size += int64(len(buf))
	j.lifeRecs++
	j.lifeBytes += int64(len(buf))
	j.maybeWarn()
}

// noteWriteErr counts a failed append and logs the first one. Callers
// hold j.mu.
func (j *FileJournal) noteWriteErr(err error) {
	j.writeErrs++
	if !j.errLogged {
		j.errLogged = true
		log.Printf("rsm: journal %s append failed (%v); journal is degraded — %d records written so far survive, later recovery may be incomplete",
			j.path, err, j.records)
	}
}

// maybeWarn logs the one-time growth warning. Callers hold j.mu (or,
// at open time, have exclusive access).
func (j *FileJournal) maybeWarn() {
	if j.warned || j.records <= FileJournalWarnRecords {
		return
	}
	j.warned = true
	log.Printf("rsm: journal %s segment has %d records (%d bytes) and no compaction has truncated it; enable rsm.WithCompaction or recovery replay cost grows unboundedly",
		j.path, j.records, j.size)
}

// Install runs the crash-safe snapshot truncation protocol (write tmp
// → fsync → atomic rename → fsync dir → fresh segment → delete old
// segment). It must be called with no concurrent appends in flight for
// the snapshot's coverage to hold — rsm runs it synchronously inside
// the event loop. On ErrInstallInterrupted (a test-armed crash step,
// see SetInstallCrash) the journal must be treated as a crashed
// process's and reopened.
func (j *FileJournal) Install(snap *Snapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap.Gen = j.gen + 1
	buf, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := j.path + ".snap.tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("rsm: snapshot tmp %s: %w", tmp, err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		return fmt.Errorf("rsm: write snapshot tmp %s: %w", tmp, err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("rsm: sync snapshot tmp %s: %w", tmp, err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("rsm: close snapshot tmp %s: %w", tmp, err)
	}
	if j.crash == SnapStepTmp {
		return ErrInstallInterrupted
	}
	if err := os.Rename(tmp, j.path+".snap"); err != nil {
		return fmt.Errorf("rsm: install snapshot %s: %w", j.path, err)
	}
	syncDir(filepath.Dir(j.path))
	if j.crash == SnapStepRename {
		return ErrInstallInterrupted
	}
	fresh, err := os.OpenFile(segPath(j.path, snap.Gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("rsm: fresh journal segment: %w", err)
	}
	old, oldGen := j.f, j.gen
	j.f, j.gen = fresh, snap.Gen
	j.records, j.size = 0, 0
	j.snapshots++
	j.snapBytes = int64(len(buf))
	j.warned = false
	old.Close()
	if j.crash == SnapStepFresh {
		return ErrInstallInterrupted
	}
	_ = os.Remove(segPath(j.path, oldGen))
	return nil
}

// SetInstallCrash arms a simulated SIGKILL at the given install step
// (SnapStepNone disarms): Install performs its effects up to and
// including that step and returns ErrInstallInterrupted. Tests and
// scenario models use it to prove recovery from every intermediate
// install state.
func (j *FileJournal) SetInstallCrash(s SnapStep) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crash = s
}

// syncDir fsyncs a directory so a rename within it is durable before
// the install proceeds. Best effort: some filesystems reject directory
// syncs, and the e2e durability target is process crash, not power
// loss.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Stats returns the journal's counters.
func (j *FileJournal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Records:     j.records,
		Bytes:       j.size,
		LifeRecords: j.lifeRecs,
		LifeBytes:   j.lifeBytes,
		Gen:         j.gen,
		Snapshots:   j.snapshots,
		SnapBytes:   j.snapBytes,
		WriteErrs:   j.writeErrs,
		Degraded:    j.writeErrs > 0,
	}
}

// Degraded reports whether any append has failed since open: the
// journal is still appending past the failure, but a recovery from it
// may be missing records. Operators should treat it as a dying disk.
func (j *FileJournal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErrs > 0
}

// SaveSeq implements Journal.
func (j *FileJournal) SaveSeq(next int) { j.append(journalRec{Kind: 1, Seq: next}) }

// SaveAccept implements Journal.
func (j *FileJournal) SaveAccept(slot int, a Acceptor) {
	j.append(journalRec{Kind: 2, Slot: slot, Acc: a})
}

// SaveDecide implements Journal.
func (j *FileJournal) SaveDecide(slot int, b []Entry) {
	j.append(journalRec{Kind: 3, Slot: slot, Batch: b})
}

// Close closes the underlying file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// RegisterWire registers every type an rsm replica stack can put on the
// wire (or in a journal) with reg: its own dissemination and batch
// types plus those of the composed fd, mpcons, and rbcast layers.
// Callers also need amp.RegisterWire for the Stack envelope.
func RegisterWire(reg func(any)) {
	reg(toPayload{})
	reg(tbFetch{})
	reg(tbDecided{})
	reg(muxMsg{})
	reg(batch{})
	reg(Entry{})
	reg(Command{})
	reg(rbcast.MsgID{})
	fd.RegisterWire(reg)
	mpcons.RegisterWire(reg)
	rbcast.RegisterWire(reg)
}
