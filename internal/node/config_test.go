package node

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		CompactRecords: 32,
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := Write(path, cfg); err != nil {
		t.Fatal(err)
	}
	got := &Config{}
	if err := Load(path, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Peers) != 3 || got.Peers[1] != "127.0.0.1:2" || got.CompactRecords != 32 {
		t.Fatalf("round trip mangled config: %+v", got)
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

// queueConfig stands in for a daemon's file of its own: Config embedded
// next to other fields.
type queueConfig struct {
	Config
	Queues int `json:"queues,omitempty"`
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
	if bare.CompactRecords != 0 {
		t.Fatalf("absent compact_records must read as 0 (the rsm default): %d", bare.CompactRecords)
	}

	embedded.Chaos = []ChaosConfig{{Kind: "drop", Pct: 10, Seed: 1}}
	embedded.CompactRecords = 32
	embedded.Queues = 4
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
  "compact_records": 32,
  "queues": 4
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
	if back.Queues != 4 || back.CompactRecords != 32 || back.Chaos[0].Kind != "drop" {
		t.Fatalf("golden document misread: %+v", back)
	}
}

// TestLoadRefusesUnknownKeys: a key the target has no field for — one
// of the tuning keys the cluster files once carried, or a misspelt live
// one — fails the load with an error naming it, where it used to be
// dropped and the daemon ran on the default. The documents bench/ and
// the kill -9 harness write must keep loading.
func TestLoadRefusesUnknownKeys(t *testing.T) {
	const addrs = `"peers":["a","b"],"clients":["c","d"],"journals":["",""]`
	dir := t.TempDir()
	load := func(doc string) error {
		path := filepath.Join(dir, "cluster.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(path, &Config{})
	}
	for _, doc := range []string{
		`{` + addrs + `}`, // bench/jobq.go's three keys
		`{` + addrs + `,"compact_records":32,"chaos":[{"kind":"drop","pct":10,"seed":1}]}`, // E2EOptions.Config
	} {
		if err := load(doc); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
	}
	for _, key := range []string{
		"unit_ms", "pipeline", "max_batch", "compact_bytes", // node.Tuning's
		"lease_ttl", "lease_margin", // basicskv's
		"grace_ticks", "step_ticks", "repropose_ticks", "max_per_worker", "retry_base", "retry_cap", "retry_budget", // basicsjobd's
		"compact_record", "peer", // misspelt
	} {
		err := load(`{` + addrs + `,"` + key + `":1}`)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("key %q: got %v, want an error naming it", key, err)
		}
	}
	if err := load(`{` + addrs + `} {}`); err == nil {
		t.Error("a second document after the cluster object was accepted")
	}
}
