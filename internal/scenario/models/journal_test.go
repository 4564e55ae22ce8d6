package models_test

import (
	"os"
	"strings"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

// TestJobQSnapCrashInstalls replays jobq seed 1, whose snapshot-crash
// fault interrupts an install after the fresh segment: the snapshot
// must encode (jobq.Cmd rides in its batches), so the fault reaches the
// crash step it was drawn for instead of failing before the tmp file.
func TestJobQSnapCrashInstalls(t *testing.T) {
	m := &models.JobQ{}
	r := m.Run(m.Generate(1))
	for _, line := range r.Trace {
		if strings.Contains(line, "encode snapshot") {
			t.Fatalf("snapshot-crash compaction did not encode: %s", line)
		}
	}
	if r.Failed {
		t.Fatalf("jobq seed 1 failed: %s", r.Reason)
	}
	if !strings.Contains(r.TraceString(), "snapcrash p3 step=3 err=rsm: snapshot install interrupted") {
		t.Fatalf("jobq seed 1 no longer interrupts its install after the fresh segment:\n%s", r.TraceString())
	}
}

// TestModelsLeaveNoJournals runs a faulty seed of every model that
// journals (odd seeds crash and reboot replicas from their journals)
// and checks each run removed its journal directory.
func TestModelsLeaveNoJournals(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, m := range []scenario.Model{&models.RSM{}, &models.JobQ{}, &models.Transport{}} {
		if r := m.Run(m.Generate(1)); r.Failed {
			t.Fatalf("%s seed 1 failed: %s", m.Name(), r.Reason)
		}
		if left, _ := os.ReadDir(tmp); len(left) > 0 {
			t.Fatalf("%s left %s behind", m.Name(), left[0].Name())
		}
	}
}
