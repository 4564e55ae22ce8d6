package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"distbasics/internal/kv"
)

// kv-inproc-write: the in-process engine. One shard of three replicas
// on the virtual-time Loopback network — no sockets, no codec, no real
// timers — so kv wave staging, rsm and Synod CPU do all the work. The
// callers are goroutines parked on the engine, not threads: 32
// operations in flight cost the generator nothing while they wait.
const (
	inprocCallers = 32
	inprocKeys    = 4096
	inprocSetups  = 15
)

// openEngine is one set-up of the in-process engine: open, preload
// every 8th key, wait until reads are served from the leader lease.
func openEngine(seed int64, keys []string) (*kv.Engine, time.Duration, error) {
	t0 := time.Now()
	e := kv.Open(kv.Options{Shards: 1, Seed: seed})
	var wg sync.WaitGroup
	errs := make(chan error, inprocCallers)
	for w := 0; w < inprocCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 8; i < len(keys); i += 8 * inprocCallers {
				if err := e.Put(keys[i], i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		e.Close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	default:
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := e.Stats().LeaseReads
		if _, err := e.Get(keys[0]); err != nil {
			e.Close()
			return nil, 0, err
		}
		if e.Stats().LeaseReads > before {
			return e, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			e.Close()
			return nil, 0, fmt.Errorf("engine lease not warm after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// engineStore lets the probers drive the engine directly.
type engineStore struct{ e *kv.Engine }

func (s engineStore) put(key string, val int) error { return s.e.Put(key, val) }
func (s engineStore) get(key string) (any, error)   { return s.e.Get(key) }
func (s engineStore) close()                        {}

func runKVInproc(c *ctx) (*result, error) {
	r := newResult()
	keys, probe := kvKeysFor(c.rng, inprocKeys)
	e, setup, err := repeatSetup(r, inprocSetups,
		func(int) (*kv.Engine, time.Duration, error) { return openEngine(c.seed, keys) },
		func(e *kv.Engine) { e.Close() })
	if err != nil {
		return nil, err
	}
	defer e.Close()
	r.set("setup_s", setup)

	w := newWindow(c.seconds)
	pr := startProbers(probe, warmUp+c.seconds, 1,
		func(int) store { return engineStore{e} }, func(int) bool { return true })
	st0, t0 := e.Stats(), time.Now()
	ops := make([]func(int) error, inprocCallers)
	for i := range ops {
		rng := rand.New(rand.NewSource(c.seed*31 + int64(i)))
		ops[i] = func(seq int) error { return e.Put(seqKey(keys, rng), seq) }
	}
	all := mergeClasses(w, runConns(w, ops)...)
	st1, wall := e.Stats(), time.Since(t0)

	r.count(all)
	r.throughput("write_ops_s", all)
	r.latency("write", all, true)
	r.alias("write_ops_s", "write_p50_us", "write_p90_us")
	if slots := st1.Slots - st0.Slots; slots > 0 {
		r.set("kv.engine.batch_writes_per_slot", float64(st1.Writes-st0.Writes)/float64(slots))
		r.set("kv.engine.slots_s", float64(slots)/wall.Seconds())
		r.notef("engine: %.1f writes per slot, %.0f slots/s", r.m["kv.engine.batch_writes_per_slot"], r.m["kv.engine.slots_s"])
	}
	return r, pr.gate(r, len(probe))
}
