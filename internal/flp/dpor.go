package flp

// The search: one depth-first loop over one mutable configuration and
// one mask-carrying seen-table, on the calling goroutine. See the
// package comment for the commutation rule and why the table stores
// masks.

// dporCovered decides whether a revisited configuration's stored sleep
// masks cover the current ones (prune) or not (re-explore with the
// intersection stored).
var dporCovered = func(stored, cur sleepMask) bool { return stored.subset(cur) }

// dporSameReceiverDep gates the one dependence the reduction must never
// drop: two deliveries to the same process. It is a variable only so the
// differential fence can mutation-verify itself — flipping it to false
// makes the reduced search explore a single delivery per receiver group,
// the textbook-wrong dependence relation, which the fence must catch.
var dporSameReceiverDep = true

// sleepMask is the pair of sleep masks a configuration is explored with.
type sleepMask struct {
	recv  uint64 // receivers whose deliveries are asleep
	crash uint64 // processes whose crashes are asleep
}

// subset reports m ⊆ o for both masks.
func (m sleepMask) subset(o sleepMask) bool {
	return m.recv&^o.recv == 0 && m.crash&^o.crash == 0
}

// seenTable maps each explored configuration (by canonical encoding) to
// the sleep masks it was explored with, and counts first visits against
// MaxConfigs.
type seenTable struct {
	m     map[string]sleepMask
	count int
	limit int
}

func newSeenTable(opts Options) *seenTable {
	limit := opts.MaxConfigs
	if limit == 0 {
		limit = DefaultMaxConfigs
	}
	return &seenTable{m: make(map[string]sleepMask), limit: limit}
}

// visit reports whether the caller should explore the configuration's
// branches: on a first visit (counted, unless the budget is exhausted),
// or on a revisit whose masks the stored ones do not cover — then the
// intersection is stored BEFORE re-exploring, so cycles terminate.
func (st *seenTable) visit(key []byte, cur sleepMask) (explore, truncated bool) {
	if stored, dup := st.m[string(key)]; dup {
		if dporCovered(stored, cur) {
			return false, false
		}
		st.m[string(key)] = sleepMask{stored.recv & cur.recv, stored.crash & cur.crash}
		return true, false
	}
	st.m[string(key)] = cur
	st.count++
	if st.count > st.limit {
		return false, true
	}
	return true, false
}

// configs is the number of configurations counted, capped at the budget.
func (st *seenTable) configs() int {
	return min(st.count, st.limit)
}

// visit explores the current configuration with the given sleep masks.
func (e *explorer) visit(sleep sleepMask) {
	explore, truncated := e.seen.visit(e.configKey(), sleep)
	if truncated {
		e.rep.Truncated = true
	}
	if !explore {
		return
	}

	// Record decisions and check agreement among live, awake processes
	// (idempotent on re-exploration).
	firstPid, firstVal := -1, 0
	quiet := true
	for i := range e.buf {
		if e.crashedMask&(1<<uint(e.buf[i].to)) == 0 {
			quiet = false
			break
		}
	}
	live := ^(e.crashedMask | e.asleepMask)
	for pid := 0; pid < e.n; pid++ {
		if live&(1<<uint(pid)) == 0 {
			continue
		}
		if d, ok := e.decision(e.stateID[pid]); ok {
			e.rep.Decided[d] = true
			if firstPid < 0 {
				firstPid, firstVal = pid, d
			} else if d != firstVal && e.rep.AgreementViolation == "" {
				e.rep.AgreementViolation = agreementMsg(firstPid, firstVal, pid, d, e.crashes, len(e.buf))
			}
		}
	}

	if quiet {
		// Complete execution: every correct process must have decided.
		if e.rep.TerminationViolation == "" {
			for pid := 0; pid < e.n; pid++ {
				bit := uint64(1) << uint(pid)
				if e.crashedMask&bit != 0 {
					continue
				}
				undecided := e.asleepMask&bit != 0
				if !undecided {
					_, decided := e.decision(e.stateID[pid])
					undecided = !decided
				}
				if undecided {
					e.rep.TerminationViolation = terminationMsg(e.crashes, pid)
					break
				}
			}
		}
		return
	}

	// Deliveries, grouped by receiver. Under DPOR a receiver with an
	// explored delivery goes to sleep for the groups and crashes after it.
	for r := 0; r < e.n; r++ {
		bit := uint64(1) << uint(r)
		if (e.crashedMask|sleep.recv)&bit != 0 {
			continue
		}
		delivered := false
		for i := 0; i < len(e.buf); i++ {
			if int(e.buf[i].to) != r || (e.asleepMask&bit != 0 && !e.buf[i].wake) {
				continue // protocol messages wait until the target wakes
			}
			e.deliverAt(i, sleep)
			delivered = true
			if e.dpor && !dporSameReceiverDep {
				break
			}
		}
		if delivered && e.dpor {
			sleep.recv |= bit
		}
	}

	// Crashes (budget permitting). Under DPOR an explored crash goes to
	// sleep for the crashes after it.
	if e.crashes >= e.maxCrashes {
		return
	}
	for pid := 0; pid < e.n; pid++ {
		bit := uint64(1) << uint(pid)
		if (e.crashedMask|sleep.crash)&bit != 0 {
			continue
		}
		e.crashBranch(pid, sleep)
		if e.dpor {
			sleep.crash |= bit
		}
	}
}

// deliverAt delivers buffer message i, recurses, and restores the
// configuration exactly — no clone. The delivery wakes what depends on
// it: the receiver's crash, and every receiver it sends to.
func (e *explorer) deliverAt(i int, sleep sleepMask) {
	m := e.buf[i]
	last := len(e.buf) - 1
	e.buf[i] = e.buf[last]
	e.buf = e.buf[:last]

	to := int(m.to)
	oldState, oldID := e.states[to], e.stateID[to]
	wasAsleep := e.asleepMask&(1<<uint(to)) != 0

	var s State
	var outs []Outgoing
	if m.wake {
		s, outs = e.proto.Initial(to, oldState.(asleep).Input)
		e.asleepMask &^= 1 << uint(to)
	} else {
		s, outs = e.proto.Deliver(to, oldState, int(m.from), m.body)
	}
	e.setState(to, s)
	sleep.crash &^= 1 << uint(to)
	for _, o := range outs {
		e.buf = append(e.buf, e.newMsg(to, o.To, o.Body, false))
		sleep.recv &^= 1 << uint(o.To)
	}

	e.visit(sleep)

	// Undo: drop the sends, put m back where it was.
	e.buf = e.buf[:last+1]
	e.buf[last] = e.buf[i]
	e.buf[i] = m
	e.states[to], e.stateID[to] = oldState, oldID
	if wasAsleep {
		e.asleepMask |= 1 << uint(to)
	}
}

// crashBranch crashes pid (discarding its pending messages), recurses,
// and restores the configuration from a pooled snapshot. A crash
// commutes with other crashes and with deliveries to other processes,
// so the masks pass through, minus the receiver that no longer exists.
func (e *explorer) crashBranch(pid int, sleep sleepMask) {
	var save []emsg
	if k := len(e.scratch); k > 0 {
		save, e.scratch = e.scratch[k-1][:0], e.scratch[:k-1]
	}
	save = append(save, e.buf...)

	kept := e.buf[:0]
	for i := range save {
		if int(save[i].to) != pid {
			kept = append(kept, save[i])
		}
	}
	e.buf = kept
	e.crashedMask |= 1 << uint(pid)
	e.crashes++
	sleep.recv &^= 1 << uint(pid)

	e.visit(sleep)

	e.crashes--
	e.crashedMask &^= 1 << uint(pid)
	e.buf = append(e.buf[:0], save...)
	e.scratch = append(e.scratch, save)
}
