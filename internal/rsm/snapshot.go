package rsm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"distbasics/internal/rbcast"
)

// State-machine snapshots with journal truncation (ROADMAP item 6): a
// replica's durable state is reconstructible from a snapshot plus the
// journal suffix written after it, so a journal need not grow without
// bound. A snapshot captures everything NewNode's recovery path needs —
// the applied application state, the delivery/dedup watermarks, the
// TO sequence number, and the live consensus state (acceptor triples
// and decided-but-undelivered batches) for slots at or above the
// delivery frontier. Slots below the frontier are deliberately absent:
// the running replica already forgets their instances once delivered
// (synodMux.gc), and peers answer a straggler's fetch or ballot for
// such a slot with its decided batch, so the snapshot preserves exactly
// the state a live replica keeps.
//
// The install protocol is crash-safe by construction:
//
//	write snapshot.tmp → fsync → rename to snapshot → fsync dir →
//	create fresh journal segment → delete old segment
//
// A SIGKILL at any point leaves one of four states, each of which
// recovery resolves to either the old or the new snapshot — never a
// hybrid:
//
//   - before the rename: the tmp file (whole or torn) is ignored and
//     deleted; the old snapshot + old segment recover as before.
//   - after the rename, before the fresh segment exists: the new
//     snapshot is valid and covers everything in the old segment
//     (installs run synchronously inside the event loop, so no record
//     lands between capture and rename); the old segment is discarded
//     and an empty fresh segment is created.
//   - after the fresh segment, before the old is deleted: same, the
//     old segment is deleted at open.
//   - after the delete: the install completed.
//
// A corrupted (not merely torn) snapshot file falls back to replaying
// whatever segments still exist, oldest first. A snapshot whose frame
// checks out but whose body does not decode is an open error instead:
// its install committed, so the segments it covered are gone.

// Snapshotter lets an application state machine ride the snapshot: the
// rsm built-in KV map is always captured, but applications that
// maintain their own state over the entry stream (internal/jobq)
// implement Snapshotter so their state is captured and restored through
// the same crash-safe install. Both calls happen inside the event loop.
type Snapshotter interface {
	// SnapshotState encodes the application state as of every entry
	// applied so far.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the application state with a previously
	// encoded snapshot; journal-suffix entries are re-applied on top of
	// it afterwards.
	RestoreState(data []byte) error
}

// Snapshot is the captured replica state behind a journal truncation.
// Frontier is the delivery frontier at capture: every slot below it is
// applied into the snapshot, and Accepts/Decides carry only slots at or
// above it.
type Snapshot struct {
	Frontier  int
	NextSeq   int
	Applies   int
	DlvLow    []int
	Delivered []rbcast.MsgID
	SeenLow   []int
	Seen      []rbcast.MsgID
	State     map[string]any
	App       []byte // Snapshotter payload; nil when no Snapshotter is set
	Accepts   map[int]Acceptor
	Decides   map[int][]Entry
	Gen       int // journal segment generation that starts after this snapshot
}

// JournalStats is a FileJournal's operational counters. Records/Bytes
// cover the current (post-snapshot) segment; LifeRecords/LifeBytes
// count everything this journal instance has seen — records replayed at
// open plus records appended since, across compactions — so
// Records < LifeRecords holds exactly when a snapshot truncated
// history. Degraded reports append failures (see WriteErrs): the
// replica keeps running on its in-memory state, but its next recovery
// may be incomplete.
type JournalStats struct {
	Records     int64
	Bytes       int64
	LifeRecords int64
	LifeBytes   int64
	Gen         int
	Snapshots   int64
	SnapBytes   int64
	WriteErrs   int64
	Degraded    bool
}

// DefaultCompactRecords / DefaultCompactBytes are the auto-compaction
// thresholds hosts use when a config leaves them zero: well below the
// FileJournal growth warning, and small enough that a recovery's suffix
// replay stays in the tens of milliseconds.
const (
	DefaultCompactRecords int64 = 1 << 14
	DefaultCompactBytes   int64 = 8 << 20
)

// SnapStep identifies a point inside the snapshot install protocol.
// FileJournal accepts a crash step via SetInstallCrash so tests and
// scenario models can simulate a SIGKILL landing after exactly that
// step: the install performs its effects up to and including the step,
// then returns ErrInstallInterrupted without completing.
type SnapStep int

const (
	// SnapStepNone: no crash; installs run to completion.
	SnapStepNone SnapStep = iota
	// SnapStepTmp: crash after snapshot.tmp is written and synced but
	// before the rename. Recovery must ignore and delete the tmp file.
	SnapStepTmp
	// SnapStepRename: crash after the atomic rename. The new snapshot
	// is durable; the old segment still exists and must be discarded.
	SnapStepRename
	// SnapStepFresh: crash after the fresh segment is created but
	// before the old segment is deleted.
	SnapStepFresh
)

// ErrInstallInterrupted is returned by Install when a configured crash
// step stopped the protocol partway (see SetInstallCrash).
var ErrInstallInterrupted = errors.New("rsm: snapshot install interrupted at configured crash step")

// snapMagic opens every snapshot file: 4 magic bytes, a u32 BE payload
// length, a u32 BE CRC32 of the payload, then the gob payload. Torn or
// corrupt files fail one of those checks and are ignored at open.
var snapMagic = [4]byte{'B', 'S', 'N', 'P'}

// snapMaxLen bounds a snapshot payload (corruption sanity check).
const snapMaxLen = 1 << 30

// encodeSnapshot renders snap in the on-disk snapshot format.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	RegisterWire(gob.Register) // payloads ride through `any` fields
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(snap); err != nil {
		return nil, fmt.Errorf("rsm: encode snapshot: %w", err)
	}
	buf := make([]byte, 0, 12+body.Len())
	buf = append(buf, snapMagic[:]...)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(body.Len()))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body.Bytes()))
	buf = append(buf, hdr[:]...)
	buf = append(buf, body.Bytes()...)
	return buf, nil
}

// errSnapTorn reports a snapshot file that fails its magic, length or
// CRC check: torn or corrupt, never the result of a committed install.
var errSnapTorn = errors.New("rsm: torn or corrupt snapshot")

// decodeSnapshot parses the on-disk snapshot format. Torn, short or
// corrupt input yields errSnapTorn; a frame that checks out but whose
// body does not decode yields the decoder's error.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	RegisterWire(gob.Register)
	if len(data) < 12 || !bytes.Equal(data[:4], snapMagic[:]) {
		return nil, errSnapTorn
	}
	n := binary.BigEndian.Uint32(data[4:8])
	if n == 0 || n > snapMaxLen || int64(len(data)) < 12+int64(n) {
		return nil, errSnapTorn
	}
	body := data[12 : 12+n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[8:12]) {
		return nil, errSnapTorn
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rsm: decode snapshot: %w", err)
	}
	return &snap, nil
}
