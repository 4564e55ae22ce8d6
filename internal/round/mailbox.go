package round

import "sort"

// This file implements the engine's mailboxes: two flat []Message buffers —
// one outgoing, one incoming — with one slot per
// (process, neighbor) pair, laid out contiguously per process in neighbor
// order. The buffers are allocated once per System and cleared (memclr)
// between rounds, so a round's mailbox traffic costs zero allocations.
// Processes read and write their slots through the Outbox and Inbox views.

// topology is the flattened, immutable neighbor layout of the base graph:
// slot off[i]+k belongs to the k-th neighbor (ascending id order) of vertex
// i, and rev[off[i]+k] is the position of i in that neighbor's own list, so
// the receive phase can read "what my k-th neighbor sent me" with two array
// loads and no search.
type topology struct {
	off  []int32 // len n+1: slot range of vertex i is off[i]..off[i+1]
	nbrs []int32 // flattened sorted neighbor ids, len off[n]
	rev  []int32 // rev[s]: index of the reverse slot within the sender's range
}

// buildTopology flattens the base graph's adjacency. old (when non-nil) is
// a previous Run's topology whose slices are reused if they still fit, so
// repeated Runs on one System allocate nothing here; the layout is always
// recomputed because the base graph may legally change between Runs.
func buildTopology(nbrOf func(int) []int, n int, old *topology) *topology {
	t := &topology{}
	if old != nil && cap(old.off) >= n+1 {
		t.off = old.off[:n+1]
	} else {
		t.off = make([]int32, n+1)
	}
	total := 0
	for i := 0; i < n; i++ {
		t.off[i] = int32(total)
		total += len(nbrOf(i))
	}
	t.off[n] = int32(total)
	if old != nil && cap(old.nbrs) >= total {
		t.nbrs = old.nbrs[:total]
		t.rev = old.rev[:total]
	} else {
		t.nbrs = make([]int32, total)
		t.rev = make([]int32, total)
	}
	for i := 0; i < n; i++ {
		base := t.off[i]
		for k, v := range nbrOf(i) {
			t.nbrs[base+int32(k)] = int32(v)
		}
	}
	for i := 0; i < n; i++ {
		for s := t.off[i]; s < t.off[i+1]; s++ {
			j := t.nbrs[s]
			// Position of i in j's sorted neighbor list.
			row := t.nbrs[t.off[j]:t.off[j+1]]
			t.rev[s] = int32(searchInt32(row, int32(i)))
		}
	}
	return t
}

func searchInt32(s []int32, v int32) int {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	if i < len(s) && s[i] == v {
		return i
	}
	return -1
}

// Outbox is a view of one process's outgoing mailbox slots for one round:
// slot k goes to Env.Neighbors[k], so a process can only address its
// neighbors in the base graph. The zero value is an empty outbox.
type Outbox struct {
	slots []Message
}

// Deg returns the number of slots (the process's degree).
func (o Outbox) Deg() int { return len(o.slots) }

// Put stores the message for neighbor k (the k-th entry of Env.Neighbors).
// A nil message is ignored: nil slots mean "no message".
func (o Outbox) Put(k int, m Message) {
	if m != nil {
		o.slots[k] = m
	}
}

// Broadcast stores the same message in every slot.
func (o Outbox) Broadcast(m Message) {
	if m == nil {
		return
	}
	for k := range o.slots {
		o.slots[k] = m
	}
}

// Inbox is a read-only view of one process's delivered messages for one
// round, after adversary filtering; slot k holds what Env.Neighbors[k] sent.
// The engine reuses the slots across rounds: an Inbox (and any slot read
// from it) is only valid until the Compute call it was passed to returns.
// The zero value is an empty inbox.
type Inbox struct {
	slots []Message
	nbrs  []int32
}

// Deg returns the number of slots (the process's degree).
func (in Inbox) Deg() int { return len(in.slots) }

// At returns the message received from neighbor k, or nil if none was
// delivered this round.
func (in Inbox) At(k int) Message { return in.slots[k] }

// Sender returns the process id behind slot k (equal to Env.Neighbors[k]).
func (in Inbox) Sender(k int) int { return int(in.nbrs[k]) }
