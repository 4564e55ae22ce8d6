package main

import (
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"distbasics/internal/node"
)

// TestJobQE2EKillMinorityIncludingScheduler is the headline robustness
// demo as a test: a 5-node TCP job-queue cluster on localhost running a
// mixed workload (transient failures, poison jobs) under link chaos,
// with two nodes — node 0, the Ω leader and thus the acting scheduler,
// plus one worker — SIGKILLed mid-campaign and restarted from their
// journals. Afterwards every submitted job must be terminal with
// exactly one completion effect, every replica must agree on every
// record, and poison jobs must sit dead-lettered at their budget. It
// builds the real binary and spawns real processes.
func TestJobQE2EKillMinorityIncludingScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real multi-process cluster")
	}
	bin := filepath.Join(t.TempDir(), "basicsjobd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := runE2E(e2eOptions{JobsPer: 12, E2EOptions: node.E2EOptions{
		Bin:     bin,
		Dir:     t.TempDir(),
		Nodes:   5,
		Clients: 3,
		Kill:    2,
		Chaos:   true,
		Compact: true, // SIGKILLs land amid live snapshot installs
		Keep:    true, // t.TempDir cleans up; keep artifacts for -v debugging
	}})
	if err != nil {
		t.Fatalf("e2e: %v", err)
	}
}

// TestWaitSubmittedStopsWhenSubmissionEnds: the kill schedule waits for
// a third of the jobs, but if every submitter gives up first the count
// never gets there; the wait must end with submission, not spin, so the
// run still reports its failure and writes its artifacts.
func TestWaitSubmittedStopsWhenSubmissionEnds(t *testing.T) {
	var submitted atomic.Int64
	submitted.Store(2)
	done := make(chan struct{})
	close(done)
	got := make(chan bool, 1)
	go func() { got <- waitSubmitted(&submitted, 10, done) }()
	select {
	case reached := <-got:
		if reached {
			t.Fatal("waitSubmitted reported the threshold reached at 2 of 10")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitSubmitted still waiting after submission ended")
	}

	submitted.Store(10)
	if !waitSubmitted(&submitted, 10, make(chan struct{})) {
		t.Fatal("waitSubmitted at the threshold reported it unreached")
	}
}

// TestJobQE2ERejectsMajorityKill guards the option validation: killing
// a majority of replicas can never satisfy the demo's liveness claims.
func TestJobQE2ERejectsMajorityKill(t *testing.T) {
	shape := func(nodes, kill int) e2eOptions {
		return e2eOptions{E2EOptions: node.E2EOptions{Bin: "x", Dir: filepath.Join(t.TempDir(), "d"), Nodes: nodes, Kill: kill}}
	}
	if _, err := shape(4, 2).withDefaults(); err == nil {
		t.Fatal("want error for kill=2 of nodes=4")
	}
	if _, err := shape(5, 2).withDefaults(); err != nil {
		t.Fatalf("kill=2 of nodes=5 is a minority: %v", err)
	}
}
