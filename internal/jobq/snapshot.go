package jobq

import (
	"bytes"
	"encoding/gob"
)

// The queue state rides rsm journal snapshots (rsm.Snapshotter): when a
// replica's journal compacts, the full replicated scheduler state —
// jobs, submission order, live workers, counters — is captured behind
// the snapshot, and a recovery restores it before the journal-suffix
// replay re-applies newer commands through the normal apply hook. The
// leader-local scheduling caches (backoff gate, proposal dedup) are
// deliberately absent: they are derived, per-replica state and rebuild
// as the restarted replica observes the queue.

// stateWire is the exported gob shadow of State.
type stateWire struct {
	Jobs    map[string]Job
	Order   []string
	Workers map[int]bool
	Ctr     Counters
}

// SnapshotState implements rsm.Snapshotter.
func (jn *Node) SnapshotState() ([]byte, error) {
	w := stateWire{
		Jobs:    make(map[string]Job, len(jn.st.jobs)),
		Order:   append([]string(nil), jn.st.order...),
		Workers: make(map[int]bool, len(jn.st.workers)),
		Ctr:     jn.st.ctr,
	}
	for id, j := range jn.st.jobs {
		w.Jobs[id] = *j
	}
	for id, live := range jn.st.workers {
		w.Workers[id] = live
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements rsm.Snapshotter: it replaces the queue state
// wholesale (recovery runs before the replica serves anything).
func (jn *Node) RestoreState(data []byte) error {
	var w stateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	st := NewState()
	st.order = append(st.order, w.Order...)
	for i, id := range st.order {
		job := w.Jobs[id]
		job.pos = int32(i)
		st.jobs[id] = &job
		if job.State == Pending {
			st.pending = append(st.pending, job.pos)
		} else if !job.State.Terminal() {
			st.load[job.Worker]++
		}
	}
	for id, live := range w.Workers {
		st.workers[id] = live
	}
	st.ctr = w.Ctr
	jn.st = st
	return nil
}
