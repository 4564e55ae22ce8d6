package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

func TestReplaySeedGreenModel(t *testing.T) {
	if code := replaySeed("check", 7, false); code != 0 {
		t.Fatalf("replaySeed(check, 7) = %d, want 0", code)
	}
}

func TestReplaySeedUnknownModel(t *testing.T) {
	if code := replaySeed("nope", 1, false); code != 2 {
		t.Fatalf("replaySeed(nope) = %d, want 2", code)
	}
}

func TestReplayFileRoundTrip(t *testing.T) {
	m, err := models.ByName("abd")
	if err != nil {
		t.Fatal(err)
	}
	sc := m.Generate(3)
	path := filepath.Join(t.TempDir(), "abd.scenario")
	if err := os.WriteFile(path, sc.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := replayFile(path, false); code != 0 {
		t.Fatalf("replayFile = %d, want 0", code)
	}
}

func TestCampaignWritesReproducer(t *testing.T) {
	// A mutated model must produce a failure, and the campaign must
	// write a replayable reproducer file for it.
	out := t.TempDir()
	m := &models.ABD{WeakReadQuorum: 1}
	var found *scenario.Failure
	for seed := uint64(1); seed <= 60 && found == nil; seed++ {
		c := &scenario.Campaign{Model: m, Start: seed, Count: 1, MaxShrinkRuns: 400}
		failures, _ := c.Run()
		if len(failures) > 0 {
			found = &failures[0]
		}
	}
	if found == nil {
		t.Fatal("weakened read quorum produced no failure in 60 seeds")
	}
	repro := found.Shrunk
	path := filepath.Join(out, "abd.scenario")
	if err := os.WriteFile(path, repro.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	// The written reproducer must decode and still fail — but under the
	// registered (sound) model it must pass, proving the file format
	// carries the scenario, not the mutation.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Run(dec).Failed {
		t.Fatal("decoded reproducer no longer fails under the mutated model")
	}
	sound, _ := models.ByName("abd")
	if sound.Run(dec).Failed {
		t.Fatal("decoded reproducer fails even under the sound model")
	}
}

func TestCampaignDigestsOutIsStable(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("digests%d.txt", i))
		if code := campaign("abd,check,flp", 1, 4, 0, "", "", path, false); code != 0 {
			t.Fatalf("campaign = %d, want 0", code)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two runs wrote different digests:\n%s\n%s", files[0], files[1])
	}
	lines := strings.Split(strings.TrimSuffix(string(files[0]), "\n"), "\n")
	if len(lines) != 3*4 {
		t.Fatalf("%d lines, want one per model × seed (12):\n%s", len(lines), files[0])
	}
	for i, line := range lines {
		want := fmt.Sprintf("%s %d ", []string{"abd", "check", "flp"}[i/4], 1+i%4)
		if !strings.HasPrefix(line, want) || len(line) != len(want)+16 {
			t.Errorf("line %d = %q, want %q + 16 hex digits", i, line, want)
		}
	}
}
