package models

import (
	"io"
	"log"
	"os"
	"strings"
	"testing"

	"distbasics/internal/scenario"
)

// TestJournalsCloseFailsLostAppends has a killed incarnation append to
// its closed journal: close must fail the run by the replica's name and
// still remove the directory.
func TestJournalsCloseFailsLostAppends(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	prev := log.Writer()
	log.SetOutput(io.Discard) // the journal logs its first failed append
	defer log.SetOutput(prev)

	res := &scenario.Result{}
	js, ok := openJournals(res, 2)
	if !ok {
		t.Fatal(res.Reason)
	}
	js.cur(0).SaveSeq(1)
	js.crash(1)
	js.cur(1).SaveSeq(1)
	js.close()
	if !res.Failed || !strings.Contains(res.Reason, "replica 1") {
		t.Fatalf("lost append not reported: failed=%v reason=%q", res.Failed, res.Reason)
	}
	if _, err := os.Stat(js.dir); !os.IsNotExist(err) {
		t.Fatalf("journal directory %s not removed (stat err %v)", js.dir, err)
	}
}
