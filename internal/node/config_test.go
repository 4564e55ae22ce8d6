package node

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

func TestConfigRoundTrip(t *testing.T) {
	cfg := &Config{
		Peers:    []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Clients:  []string{"127.0.0.1:4", "127.0.0.1:5", "127.0.0.1:6"},
		Journals: []string{"a.j", "b.j", ""},
		Chaos: []ChaosConfig{
			{Kind: "drop", Pct: 10, From: 100, Until: 200, Seed: 7},
			{Kind: "partition", Group: []int{2}},
		},
		Tuning: Tuning{UnitMS: 5, Pipeline: 8},
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := Write(path, cfg); err != nil {
		t.Fatal(err)
	}
	got := &Config{}
	if err := Load(path, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Peers) != 3 || got.Peers[1] != "127.0.0.1:2" || got.UnitMS != 5 || got.Pipeline != 8 {
		t.Fatalf("round trip mangled config: %+v", got)
	}
	if got.Unit() != 5*time.Millisecond {
		t.Fatalf("unit = %v", got.Unit())
	}
	if (&Tuning{}).Unit() != transport.DefaultUnit {
		t.Fatalf("default unit = %v", (&Tuning{}).Unit())
	}

	// Per-sender chaos streams must differ (decorrelated faults) while
	// everything else is preserved.
	r0, r1 := got.ChaosRules(0), got.ChaosRules(1)
	if len(r0) != 2 || r0[0].Kind != transport.ChaosDrop || r0[0].Pct != 10 {
		t.Fatalf("rules for sender 0: %+v", r0)
	}
	if r0[0].Seed == r1[0].Seed {
		t.Fatal("chaos seeds must differ per sender")
	}
	if r0[1].Kind != transport.ChaosPartition || len(r0[1].Group) != 1 || r0[1].Group[0] != 2 {
		t.Fatalf("partition rule: %+v", r0[1])
	}
}

func TestLoadConfigRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]*Config{
		"lengths.json":  {Peers: []string{"a", "b"}, Clients: []string{"c"}, Journals: []string{"", ""}},
		"journals.json": {Peers: []string{"a", "b"}, Clients: []string{"c", "d"}, Journals: []string{""}},
		"kind.json": {Peers: []string{"a"}, Clients: []string{"b"}, Journals: []string{""},
			Chaos: []ChaosConfig{{Kind: "meteor"}}},
		"empty.json": {},
	}
	for name, cfg := range cases {
		path := filepath.Join(dir, name)
		if err := Write(path, cfg); err != nil {
			t.Fatal(err)
		}
		if err := Load(path, &Config{}); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
	bad := filepath.Join(dir, "syntax.json")
	os.WriteFile(bad, []byte(`{"peers": [`), 0o644)
	if err := Load(bad, &Config{}); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("syntax error: got %v", err)
	}
	if err := Load(filepath.Join(dir, "absent.json"), &Config{}); err == nil {
		t.Error("missing file accepted")
	}
}

// queueConfig stands in for basicsjobd's file: Config embedded next to
// fields of its own.
type queueConfig struct {
	Config
	GraceTicks int `json:"grace_ticks,omitempty"`
}

// TestConfigGolden pins the file format from both sides: the exact
// document bench/jobq.go writes for `basicsjobd serve` (json.Marshal of
// a map: three keys, sorted) loads as is — bare and embedded — and
// Write emits the keys the daemons have always read, in declaration
// order, with a struct around Config written whole.
func TestConfigGolden(t *testing.T) {
	const benchDoc = `{
  "clients": [
    "127.0.0.1:10003",
    "127.0.0.1:10004"
  ],
  "journals": [
    "/tmp/node0.journal",
    "/tmp/node1.journal"
  ],
  "peers": [
    "127.0.0.1:10001",
    "127.0.0.1:10002"
  ]
}
`
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(benchDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var bare Config
	var embedded queueConfig
	for _, cfg := range []interface{ Validate() error }{&bare, &embedded} {
		if err := Load(in, cfg); err != nil {
			t.Fatalf("bench document rejected: %v", err)
		}
	}
	if bare.Peers[1] != "127.0.0.1:10002" || embedded.Clients[0] != "127.0.0.1:10003" || embedded.Journals[1] != "/tmp/node1.journal" {
		t.Fatalf("bench document misread: %+v / %+v", bare, embedded)
	}
	if r, b := bare.compaction(); r != rsm.DefaultCompactRecords || b != rsm.DefaultCompactBytes || len(bare.rsmOptions()) != 0 {
		t.Fatalf("absent tuning keys must mean the defaults: %d/%d, %d options", r, b, len(bare.rsmOptions()))
	}

	embedded.Chaos = []ChaosConfig{{Kind: "drop", Pct: 10, Seed: 1}}
	embedded.Tuning = Tuning{UnitMS: 3, Pipeline: 2, MaxBatch: 16, CompactRecords: 32, CompactBytes: -1}
	embedded.GraceTicks = 400
	const golden = `{
  "peers": [
    "127.0.0.1:10001",
    "127.0.0.1:10002"
  ],
  "clients": [
    "127.0.0.1:10003",
    "127.0.0.1:10004"
  ],
  "journals": [
    "/tmp/node0.journal",
    "/tmp/node1.journal"
  ],
  "chaos": [
    {
      "kind": "drop",
      "pct": 10,
      "seed": 1
    }
  ],
  "unit_ms": 3,
  "pipeline": 2,
  "max_batch": 16,
  "compact_records": 32,
  "compact_bytes": -1,
  "grace_ticks": 400
}
`
	out := filepath.Join(dir, "out.json")
	if err := Write(out, &embedded); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != golden {
		t.Fatalf("written file:\n%s\nwant:\n%s", raw, golden)
	}
	var back queueConfig
	if err := Load(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.GraceTicks != 400 || back.MaxBatch != 16 || back.Chaos[0].Kind != "drop" || len(back.rsmOptions()) != 2 {
		t.Fatalf("golden document misread: %+v", back)
	}
}

func TestResolveThreshold(t *testing.T) {
	for _, c := range []struct{ v, def, want int64 }{
		{0, 1 << 14, 1 << 14}, // absent: the rsm default
		{-1, 1 << 14, 0},      // negative: off (rsm.WithCompaction's 0)
		{-1 << 40, 8, 0},
		{32, 1 << 14, 32},
		{1, 0, 1},
	} {
		if got := resolveThreshold(c.v, c.def); got != c.want {
			t.Errorf("resolveThreshold(%d, %d) = %d, want %d", c.v, c.def, got, c.want)
		}
	}
	recs, bytes := (&Tuning{CompactRecords: -1, CompactBytes: 4096}).compaction()
	if recs != 0 || bytes != 4096 {
		t.Errorf("compaction() = %d, %d", recs, bytes)
	}
}
