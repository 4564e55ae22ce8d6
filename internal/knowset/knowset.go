// Package knowset provides the append-only knowledge set shared by the
// full-information flooding protocols (§3.2's Flood, §3.3's TreeFlood): a
// process accumulates <id, value> pairs it has learned and re-broadcasts a
// snapshot of them every round.
//
// The representation is a growing []Pair plus a membership bitmap. A
// round's payload is a capped prefix of the pair slice, so sending to every
// neighbor shares one backing array with no copying; because the owner only
// ever appends — never mutates an entry a receiver can see — a receiver's
// view of that array never changes under it.
package knowset

// Pair is one <id, value> element of the flooding payload.
type Pair struct {
	ID int
	V  any
}

// Set is one process's accumulated knowledge. The zero value is empty;
// call Reset before use.
type Set struct {
	pairs []Pair
	have  []bool
}

// Reset re-initializes the set for a system of n processes, seeding it with
// the owner's own <id, v> pair. Allocated storage is reused when possible.
func (s *Set) Reset(n, id int, v any) {
	s.pairs = append(s.pairs[:0], Pair{ID: id, V: v})
	if len(s.have) == n {
		clear(s.have)
	} else {
		s.have = make([]bool, n)
	}
	s.have[id] = true
}

// Payload returns this round's message: an immutable snapshot of current
// knowledge (capped so receivers cannot append into the shared array).
func (s *Set) Payload() []Pair {
	return s.pairs[:len(s.pairs):len(s.pairs)]
}

// Merge folds a received payload into the set.
func (s *Set) Merge(pairs []Pair) {
	for _, pr := range pairs {
		if !s.have[pr.ID] {
			s.have[pr.ID] = true
			s.pairs = append(s.pairs, pr)
		}
	}
}

// Size returns the number of distinct ids known.
func (s *Set) Size() int { return len(s.pairs) }

// Complete reports whether all n inputs are known.
func (s *Set) Complete() bool { return len(s.pairs) == len(s.have) }

// Vector returns the gathered input vector indexed by id, or nil if the set
// is incomplete.
func (s *Set) Vector() []any {
	if !s.Complete() {
		return nil
	}
	vec := make([]any, len(s.have))
	for _, pr := range s.pairs {
		vec[pr.ID] = pr.V
	}
	return vec
}

// IDs appends the known ids to dst in learning order and returns it.
func (s *Set) IDs(dst []int) []int {
	for _, pr := range s.pairs {
		dst = append(dst, pr.ID)
	}
	return dst
}
