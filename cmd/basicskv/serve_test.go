package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distbasics/internal/check"
	"distbasics/internal/clientrpc"
	"distbasics/internal/node"
)

// TestServeKillRestart is basicskv's kill -9 survival test, on the
// harness the basicsd and basicsjobd e2es use: 3 `basicskv serve`
// processes x 2 shards with journals; three clients put unique keys and
// put/get shared ones (recorded for the linearizability checker); one
// process is SIGKILLed while the other two keep serving, restarted from
// its journals, and then every acknowledged key is read back THROUGH
// the restarted process — a consensus read that completes at its own
// apply point, so it proves that replica recovered and caught up.
func TestServeKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real multi-process cluster")
	}
	bin := filepath.Join(t.TempDir(), "basicskv")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const procs, shards, victim = 3, 2, 2
	opt, err := node.E2EOptions{Bin: bin, Dir: t.TempDir(), Nodes: procs, Kill: 1, Keep: true}.WithDefaults("basicskv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Shards: shards}
	for s := 0; s < shards; s++ {
		row, err := node.AllocAddrs(procs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Peers = append(cfg.Peers, row)
		var journals []string
		for i := 0; i < procs; i++ {
			journals = append(journals, filepath.Join(opt.Dir, fmt.Sprintf("shard%d-proc%d.journal", s, i)))
		}
		cfg.Journals = append(cfg.Journals, journals)
	}
	if cfg.Clients, err = node.AllocAddrs(procs); err != nil {
		t.Fatal(err)
	}
	cl, err := node.Launch(opt, cfg, cfg.Clients, "self")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()

	// One shared key per shard (UniformHexBounds splits on the hex
	// prefix), few enough ops on each to stay inside check.MaxOps.
	shared := []string{"10-shared", "c0-shared"}
	rec := check.NewRecorder()
	var mu sync.Mutex
	acked := map[string]int{}
	nextProc := procs // fresh history process ids after a failed op

	// phase runs `ops` rounds on each listed client concurrently: a
	// unique-key put, then a put or get of a shared key.
	phase := func(tag string, ops int, clients ...int) {
		var wg sync.WaitGroup
		for _, ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				rpc := clientrpc.NewClient(cfg.Clients[ci])
				defer rpc.Close()
				proc := ci
				for op := 0; op < ops; op++ {
					key, val := fmt.Sprintf("%02x-%s-c%d-%d", (op*67+ci*31)%256, tag, ci, op), op+1000*ci
					if err := rpc.Put(key, val, node.RPCTimeout); err == nil {
						mu.Lock()
						acked[key] = val
						mu.Unlock()
					}
					sk := shared[(op+ci)%len(shared)]
					var err error
					if op%2 == 0 {
						inv := rec.Call(proc, check.KeyedOp{Key: sk, Op: check.WriteOp{V: val}})
						if err = rpc.Put(sk, val, node.RPCTimeout); err == nil {
							inv.Return(nil)
						}
					} else {
						inv := rec.Call(proc, check.KeyedOp{Key: sk, Op: check.ReadOp{}})
						var v any
						if v, err = rpc.Get(sk, node.RPCTimeout); err == nil {
							inv.Return(clientrpc.NormalizeVal(v))
						}
					}
					if err != nil {
						// The op stays pending; a history process may not
						// invoke past one, so continue under a fresh id.
						mu.Lock()
						proc, nextProc = nextProc, nextProc+1
						mu.Unlock()
					}
				}
			}(ci)
		}
		wg.Wait()
	}

	phase("up", 6, 0, 1, 2)
	cl.Kill9(victim)
	phase("down", 6, 0, 1) // a majority of every shard is still up
	if err := cl.Restart([]int{victim}, 15*time.Second); err != nil {
		t.Fatal(cl.Fail(err))
	}
	phase("back", 2, 0, 1, 2)

	if want := 3*6 + 2*6 + 3*2; len(acked) != want {
		t.Errorf("%d of %d unique-key puts acknowledged", len(acked), want)
	}
	rpc := clientrpc.NewClient(cfg.Clients[victim])
	defer rpc.Close()
	for key, want := range acked {
		v, err := rpc.Get(key, node.RPCTimeout)
		if err != nil {
			t.Fatal(cl.Fail(fmt.Errorf("read back %s through the restarted process: %w", key, err)))
		}
		if got := clientrpc.NormalizeVal(v); got != want {
			t.Fatal(cl.Fail(fmt.Errorf("acked key %s reads %v through the restarted process, want %d", key, got, want)))
		}
	}
	resp, err := cl.Stats(victim)
	if err != nil || resp.Journal == nil || resp.Journal.WriteErrs > 0 || resp.Journal.Degraded || resp.Net == nil {
		t.Fatalf("restarted process stat: %+v (journal %+v), err %v", resp, resp.Journal, err)
	}

	h := rec.History()
	spec := check.RegisterArraySpec{}
	lin, err := check.Linearizable(spec, h)
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	if !lin.OK {
		t.Fatal(cl.Fail(fmt.Errorf("history of %d ops is NOT linearizable", len(h))))
	}
	if err := check.ValidateOrder(spec, h, lin.Order); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	t.Logf("%d acked keys read back through the restarted process; %d shared-key ops linearizable over %d partitions",
		len(acked), len(h), lin.Partitions)
}

// TestConfigValidation guards the serve config loader.
func TestConfigValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(s string) string {
		p := filepath.Join(dir, "cfg.json")
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	load := func(s string) (*Config, error) {
		cfg := &Config{}
		return cfg, node.Load(write(s), cfg)
	}
	if _, err := load(`{"peers":[["a","b","c"]],"clients":["x","y","z"]}`); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := load(`{"peers":[["a","b"],["c"]],"clients":["x","y"]}`); err == nil {
		t.Fatal("ragged peer rows accepted")
	}
	if _, err := load(`{"peers":[["a","b","c"]],"clients":["x"]}`); err == nil {
		t.Fatal("client/replica count mismatch accepted")
	}
	if _, err := load(`{"peers":[["a","b"]],"clients":["x","y"],"journals":[["j"]]}`); err == nil {
		t.Fatal("ragged journal row accepted")
	}
	if _, err := load(`{"peers":[["a","b"]],"clients":["x","y"],"journals":[["j","k"],["l","m"]]}`); err == nil {
		t.Fatal("journal rows/shard count mismatch accepted")
	}

	// The exact document bench/kvtcp.go writes: its four keys, map order.
	cfg, err := load(`{
  "clients": ["c0", "c1", "c2"],
  "journals": [["s0p0.j", "s0p1.j", "s0p2.j"], ["s1p0.j", "s1p1.j", "s1p2.j"]],
  "peers": [["a0", "a1", "a2"], ["b0", "b1", "b2"]],
  "shards": 2
}`)
	if err != nil {
		t.Fatalf("bench document rejected: %v", err)
	}
	hc := cfg.hostConfig(1)
	if hc.Shards != 2 || hc.Self != 1 || hc.Peers[1][2] != "b2" ||
		len(hc.Journals) != 2 || hc.Journals[0] != "s0p1.j" || hc.Journals[1] != "s1p1.j" {
		t.Fatalf("host config for process 1: %+v", hc)
	}

	// The file is addresses and paths: every tuning key it once carried
	// — and a misspelt one — is refused by name, not silently dropped.
	for _, key := range []string{"unit_ms", "max_batch", "pipeline", "compact_records", "compact_bytes", "lease_ttl", "lease_margin", "shard"} {
		_, err := load(`{"peers":[["a","b","c"]],"clients":["x","y","z"],"` + key + `":1}`)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("key %q: got %v, want an error naming it", key, err)
		}
	}
}
