package models_test

// testdata/digests.txt is the models' golden store: one "model seed
// digest" line (scenario.Result's Digest) per generated seed 1–120 of
// every registered model, written by
//
//	go run ./cmd/basicsfuzz -models=all -seeds=120 -digests-out=internal/scenario/models/testdata/digests.txt
//
// A change that moves a model's answers regenerates the file, and the
// git diff is the list of moved seeds. CI regenerates all of it and
// requires an empty diff; this test checks the seeds the sweep
// (determinism_test.go) runs.

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"distbasics/internal/scenario"
	"distbasics/internal/scenario/models"
)

const digestsFile = "testdata/digests.txt"

// readDigests parses the golden store, requiring models.All() order,
// then seed order, seeds 1–120.
func readDigests(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var order []string
	byModel := make(map[string][]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s:%d: want \"model seed digest\", got %q", digestsFile, line, sc.Text())
		}
		model, digest := fields[0], fields[2]
		seed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: %v", digestsFile, line, err)
		}
		if _, ok := byModel[model]; !ok {
			order = append(order, model)
		}
		if want := uint64(len(byModel[model]) + 1); seed != want {
			t.Fatalf("%s:%d: %s seed %d, want %d", digestsFile, line, model, seed, want)
		}
		byModel[model] = append(byModel[model], digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range models.All() {
		want = append(want, m.Name())
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("%s lists models %v, want models.All() order %v", digestsFile, order, want)
	}
	for model, ds := range byModel {
		if len(ds) != 120 {
			t.Fatalf("%s: %s has %d seeds, want 120", digestsFile, model, len(ds))
		}
	}
	return byModel
}

func TestModelDigests(t *testing.T) {
	golden := readDigests(t)
	eachSeed(t, func(t *testing.T, model string, seed uint64, r seedRun) {
		if want := golden[model][seed-1]; r.digest != want {
			scenario.Reportf(t, model, seed, "digest %s, %s has %s (regenerate it if the move is meant, and say why)",
				r.digest, digestsFile, want)
		}
	})
}
