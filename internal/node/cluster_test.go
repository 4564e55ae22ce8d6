package node

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"distbasics/internal/clientrpc"
)

func TestAllocAddrs(t *testing.T) {
	addrs, err := AllocAddrs(6)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := listenRange()
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("address %s handed out twice: %v", a, addrs)
		}
		seen[a] = true
		host, port, err := net.SplitHostPort(a)
		p, perr := strconv.Atoi(port)
		if err != nil || perr != nil || host != "127.0.0.1" || p < lo || p >= hi {
			t.Fatalf("%s is not a localhost port in [%d,%d), below the ephemeral range", a, lo, hi)
		}
		ln, err := net.Listen("tcp", a)
		if err != nil {
			t.Fatalf("allocated address does not bind: %v", err)
		}
		defer ln.Close() // keep it bound: the next call must skip it
	}
	more, err := AllocAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range more {
		if seen[a] {
			t.Fatalf("address %s is in use and was handed out again", a)
		}
	}
}

func TestE2EOptions(t *testing.T) {
	shape := func(nodes, kill int) E2EOptions {
		return E2EOptions{Bin: "x", Dir: filepath.Join(t.TempDir(), "d"), Nodes: nodes, Kill: kill}
	}
	if _, err := shape(4, 2).WithDefaults("t"); err == nil {
		t.Fatal("want error for kill=2 of nodes=4")
	}
	if _, err := shape(3, -1).WithDefaults("t"); err == nil {
		t.Fatal("want error for a negative kill count")
	}
	opt, err := E2EOptions{Bin: "x", Kill: 2, Chaos: true, Compact: true}.WithDefaults("t")
	if err != nil {
		t.Fatalf("kill=2 of the default 5 nodes is a minority: %v", err)
	}
	if opt.Nodes != 5 || opt.Clients != 3 || !strings.Contains(filepath.Base(opt.Dir), "t-e2e-") {
		t.Fatalf("defaults: %+v", opt)
	}
	cfg, err := opt.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("generated config invalid: %v", err)
	}
	if len(cfg.Peers) != 5 || cfg.CompactRecords != 32 || len(cfg.Chaos) != 3 ||
		filepath.Dir(cfg.Journals[4]) != opt.Dir {
		t.Fatalf("generated config: %+v", cfg)
	}
	opt.Chaos, opt.Compact = false, false
	if cfg, _ = opt.Config(); cfg.CompactRecords != 0 || len(cfg.Chaos) != 0 {
		t.Fatalf("faults injected without being asked for: %+v", cfg)
	}
	(&Cluster{opt: opt}).Passed()
	if _, err := os.Stat(opt.Dir); !os.IsNotExist(err) {
		t.Fatalf("a passed run without -keep must remove its artifacts: %v", err)
	}
}

// TestVerbArgs: a verb's parser accepts its flags and refuses, with the
// usage and exit status 2, a positional argument left over — `e2e keep`
// must not run as `e2e` and then delete the artifacts. The parsers exit,
// so each case runs in a re-execution of the test binary.
func TestVerbArgs(t *testing.T) {
	if verb := os.Getenv("NODE_TEST_VERB"); verb != "" {
		args := strings.Fields(os.Getenv("NODE_TEST_ARGS"))
		if verb == "serve" {
			ServeArgs(args, "id")
		} else {
			E2EArgs(args)
		}
		os.Exit(0)
	}
	for _, tc := range []struct {
		verb, args string
		refused    bool
	}{
		{"serve", "-config f.json -id 1", false},
		{"serve", "-config f.json -id 1 extra", true},
		{"serve", "-config f.json 1", true},
		{"e2e", "", false},
		{"e2e", "-dir d -keep", false},
		{"e2e", "keep", true},
		{"e2e", "-dir d keep", true},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestVerbArgs$")
		cmd.Env = append(os.Environ(), "NODE_TEST_VERB="+tc.verb, "NODE_TEST_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		if !tc.refused {
			if err != nil {
				t.Errorf("%s %q: refused: %v\n%s", tc.verb, tc.args, err, out)
			}
			continue
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%s %q: want exit status 2, got %v\n%s", tc.verb, tc.args, err, out)
		}
		if !strings.Contains(string(out), "unexpected argument") || !strings.Contains(string(out), "Usage of "+tc.verb) {
			t.Errorf("%s %q: want the stray argument named and the usage, got:\n%s", tc.verb, tc.args, out)
		}
	}
}

// TestCheckJournals drives the bounded-journal assertion with stat
// servers that report exactly the shapes it must tell apart.
func TestCheckJournals(t *testing.T) {
	healthy := clientrpc.JournalStats{Records: 10, Bytes: 100, LifeRecords: 90, LifeBytes: 900, Snapshots: 3, Gen: 3}
	restarted := clientrpc.JournalStats{Records: 5, Bytes: 50, LifeRecords: 5, LifeBytes: 50, Gen: 2} // recovered from a snapshot, not yet re-compacted
	cases := []struct {
		name  string
		nodes []*clientrpc.JournalStats
		want  string // substring of the error; "" = pass
	}{
		{"bounded", []*clientrpc.JournalStats{&healthy, &restarted}, ""},
		{"no journal", []*clientrpc.JournalStats{&healthy, nil}, "no journal stats"},
		{"never compacted", []*clientrpc.JournalStats{&healthy, {Records: 40, LifeRecords: 40}}, "never compacted"},
		{"below threshold", []*clientrpc.JournalStats{&healthy, {Records: 30, Bytes: 300, LifeRecords: 30, LifeBytes: 300}}, ""}, // killed early, restarted late: no compaction was due
		{"unbounded", []*clientrpc.JournalStats{{Records: 90, Bytes: 900, LifeRecords: 90, LifeBytes: 900, Snapshots: 1}}, "not bounded"},
		{"degraded", []*clientrpc.JournalStats{{Records: 1, Bytes: 1, LifeRecords: 9, LifeBytes: 9, Snapshots: 1, WriteErrs: 2, Degraded: true}}, "degraded"},
		{"only restarts", []*clientrpc.JournalStats{&restarted, &restarted}, "no node installed a snapshot"},
	}
	for _, c := range cases {
		cl := &Cluster{}
		for _, js := range c.nodes {
			js := js
			srv, err := clientrpc.NewServer("127.0.0.1:0", func(clientrpc.Request) clientrpc.Response {
				return clientrpc.Response{OK: true, Journal: js}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl.Clients = append(cl.Clients, srv.Addr())
		}
		err := cl.CheckJournals()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
