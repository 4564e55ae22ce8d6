// Package models holds the scenario-harness adapters (scenario.Model
// implementations) for every execution model in the repository:
//
//   - abd, abdmulti, rsm, kv, jobq, benor — asynchronous message
//     passing (amp) systems under amp adversaries and crash windows
//     (pauses), checked for linearizability, agreement or the queue's.
//   - transport — the rsm cluster over the real-transport runtime
//     (Loopback+Chaos+Resilient), checked for linearizability. Its crash
//     window is still a journal restart, not a pause.
//   - universal — the shared-memory universal construction under
//     scenario-scheduled crashes, checked per key against KVSpec.
//   - ampequiv, shmequiv, roundequiv, check, flp — golden-equivalence
//     models: the rebuilt engines must match their preserved legacy
//     twins on seeded random workloads.
//   - dynnet, madv — the synchronous round model under random dynamic
//     communication graphs and message adversaries, checked against the
//     dissemination and lattice invariants of §3.3.
//
// Every adapter is deterministic: the same scenario replays to a
// byte-identical scenario.Result (asserted by the determinism tests),
// which is what makes a reported seed a complete reproducer and makes
// shrinking sound.
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
		&KV{},
		&JobQ{},
		&Transport{},
		&BenOr{},
		&Universal{},
		&AmpEquiv{},
		&ShmEquiv{},
		&ShmExplore{},
		&RoundEquiv{},
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
