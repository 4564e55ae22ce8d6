// Package models holds the scenario-harness adapters (scenario.Model
// implementations) for every execution model in the repository:
//
//   - abd, abdmulti, rsm, jobq, benor — asynchronous message passing
//     (amp) systems under amp adversaries and crash windows (pauses),
//     checked for linearizability, agreement or the queue's. rsm and
//     jobq journal every replica and snapshot-crash one.
//   - transport — the rsm cluster over the real-transport runtime
//     (Loopback+Chaos+Runtime), checked for linearizability. Its crash
//     window is still a journal restart, not a pause.
//   - lease — kv's lease read (kv.LeaseRead, kv.LeaseOptions) on three
//     rsm replicas under partitions, outbound cuts, leader pauses and
//     clock-rate windows, checked for linearizability.
//   - universal — the shared-memory universal construction under
//     scenario-scheduled crashes, checked per key against KVSpec.
//   - ampchatter, shmexec — random chatter on the amp simulator and
//     random racy programs on the shared-memory engine, checked by
//     oracles that share no code with the engine (monotone virtual time
//     and balanced message books; balanced step books).
//   - shmexplore, flp — the exhaustive explorers, full search against
//     DPOR.
//   - check — the linearizability checker against its preserved seed
//     implementation (check.LinearizableLegacy) and across memo tiers.
//   - dynnet, madv — the synchronous round model under random dynamic
//     communication graphs and message adversaries, checked against the
//     dissemination and lattice invariants of §3.3.
//
// Every adapter is deterministic: the same scenario replays to a
// byte-identical scenario.Result (asserted by the determinism tests),
// which is what makes a reported seed a complete reproducer and makes
// shrinking sound. testdata/digests.txt freezes every model's Result
// digest for seeds 1–120 (basicsfuzz -digests-out regenerates it). For
// ampchatter, shmexec, shmexplore and flp those are also the answers of
// the deleted seed-era engines, recorded while both engines ran and
// agreed.
package models

import (
	"fmt"

	"distbasics/internal/scenario"
)

// All returns one instance of every registered model, in stable order.
func All() []scenario.Model {
	return []scenario.Model{
		&ABD{},
		&ABDMulti{},
		&RSM{},
		&JobQ{},
		&Transport{},
		&Lease{},
		&BenOr{},
		&Universal{},
		&AmpChatter{},
		&ShmExec{},
		&ShmExplore{},
		&Check{},
		&FLP{},
		&DynNet{},
		&MAdv{},
	}
}

// ByName returns the registered model with the given name.
func ByName(name string) (scenario.Model, error) {
	for _, m := range All() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}
