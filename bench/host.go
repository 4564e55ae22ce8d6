package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The sizing box is a few cores of a shared host, and part of what the
// neighbours do to a run can be read from the kernel: the time the
// hypervisor takes the cores away outright (the steal column of
// /proc/stat). It comes in stretches of a minute or two in which a
// fifth to two fifths of the CPU time is stolen, and a run measured in
// one says how busy the neighbours were, not how fast the program is:
// consensus reads halve and their p90 triples. So a run starts once
// the host leaves the cores alone (waitQuiet), is measured again, once,
// if more than quietSteal of its CPU time was stolen all the same, and
// reports what was stolen from it as host.steal_share. README "The
// host" has what steal does not show.
const (
	quietSteal = 0.03             // runs on a quiet host read 0 to 0.005
	quietWait  = 45 * time.Second // at most this long for a quiet host, then run anyway
	quietProbe = 250 * time.Millisecond
)

// waitQuiet returns once a probe reads at most quietSteal, or after
// quietWait. An idle VM is not stolen from, so the probe has to want
// the cores: it spins on every CPU for quietProbe and reads the stolen
// share of that stretch.
func waitQuiet() (waited time.Duration, quiet bool) {
	t0 := time.Now()
	for {
		m := markHost()
		var wg sync.WaitGroup
		for i := 0; i < runtime.NumCPU(); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for end := time.Now().Add(quietProbe); time.Now().Before(end); {
				}
			}()
		}
		wg.Wait()
		if stolenSince(m) <= quietSteal {
			return time.Since(t0), true
		}
		if time.Since(t0) > quietWait {
			return time.Since(t0), false
		}
		time.Sleep(time.Second)
	}
}

// hostMark is the host's cumulative stolen and total CPU time, in
// jiffies over all CPUs.
type hostMark struct{ steal, total int64 }

// markHost parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal; guest time is already
// inside user. Where the file cannot be read the mark is zero and no
// time counts as stolen.
func markHost() hostMark {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostMark{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostMark{}
	}
	var m hostMark
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return hostMark{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// stolenSince is the share of the host's CPU time since m that the
// hypervisor took.
func stolenSince(m hostMark) float64 {
	now := markHost()
	if d := now.total - m.total; d > 0 {
		return float64(now.steal-m.steal) / float64(d)
	}
	return 0
}
