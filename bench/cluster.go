package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distbasics/internal/clientrpc"
)

// env is where one benchmark process keeps everything it writes: all
// of it under <repo>/.bench_build, nothing in /tmp or $HOME, so a run
// reads and writes only inside its checkout.
type env struct {
	root string // repository root (holds go.mod of module distbasics)
	bin  string // <root>/.bench_build/bin: the daemon binaries
	run  string // <root>/.bench_build/run-<pid>: configs, journals, logs; removed at exit
}

func newEnv() (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module distbasics\n") {
		return nil, fmt.Errorf("bench: %s is not the distbasics repository root (run it from there)", root)
	}
	e := &env{
		root: root,
		bin:  filepath.Join(root, ".bench_build", "bin"),
		run:  filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(e.run, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.run) }

// dir makes a fresh sub-directory of the run directory.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.run, name+"-")
}

// buildDaemons compiles basicskv and basicsjobd from this checkout's
// source. The Go build cache makes every call after the first a
// no-op; the time is never part of setup_s.
func (e *env) buildDaemons() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/basicskv", "./cmd/basicsjobd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build daemons: %v\n%s", err, out)
	}
	return nil
}

// proc is one spawned daemon.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// cluster is a set of daemon subprocesses sharing one config file.
type cluster struct {
	dir     string
	bin     string
	args    func(i int) []string
	clients []string
	procs   []*proc
}

func (c *cluster) start(i int) error {
	logf, err := os.OpenFile(filepath.Join(c.dir, fmt.Sprintf("proc%d.log", i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.bin, c.args(i)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons have no shutdown path; if the benchmark itself is
	// killed they must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start proc %d: %w", i, err)
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	c.procs[i] = p
	return nil
}

// kill9 SIGKILLs process i and waits until it has ended.
func (c *cluster) kill9(i int) {
	p := c.procs[i]
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	c.procs[i] = nil
}

// stop kills every process still running and waits for each.
func (c *cluster) stop() {
	for i := range c.procs {
		c.kill9(i)
	}
}

func (c *cluster) pids() []int {
	var out []int
	for _, p := range c.procs {
		if p != nil {
			out = append(out, p.cmd.Process.Pid)
		}
	}
	return out
}

// logTail returns the last lines of every process log, for error
// reports.
func (c *cluster) logTail() string {
	var b strings.Builder
	for i := range c.procs {
		raw, err := os.ReadFile(filepath.Join(c.dir, fmt.Sprintf("proc%d.log", i)))
		if err != nil || len(raw) == 0 {
			continue
		}
		if len(raw) > 600 {
			raw = raw[len(raw)-600:]
		}
		fmt.Fprintf(&b, "--- proc%d.log\n%s\n", i, raw)
	}
	return b.String()
}

// readyPoll is how often waitReady polls; it bounds the resolution of
// setup_s.
const readyPoll = 10 * time.Millisecond

// waitReady blocks until every process answers a stat RPC. A process
// that has exited fails the wait at once, with errProcDied.
func (c *cluster) waitReady(deadline time.Duration) error {
	for i, addr := range c.clients {
		cl := clientrpc.NewClient(addr)
		end := time.Now().Add(deadline)
		for {
			_, err := cl.Stat(time.Second)
			cl.Close()
			if err == nil {
				break
			}
			select {
			case <-c.procs[i].done:
				return fmt.Errorf("process %d: %w", i, errProcDied)
			default:
			}
			if time.Now().After(end) {
				return fmt.Errorf("process %d at %s not ready after %s", i, addr, deadline)
			}
			time.Sleep(readyPoll)
		}
	}
	return nil
}

// errProcDied is a daemon exiting while its deployment is being set
// up. It happened once in about 1700 set-ups of basicskv while sizing
// — a panic under transport.(*Runtime).onFrame in a process that had
// just started — so repeatSetup sets such a deployment up again
// instead of failing the run, and counts it.
var errProcDied = errors.New("exited during set-up")

// portCursor walks the ports below the kernel's ephemeral range. A
// port the kernel hands out itself (":0") can be taken again, between
// our releasing it and a daemon binding it, as the source port of any
// outgoing connection — the daemons dial each other the moment they
// start — and the daemon then dies with "address already in use".
// Ports below the range are only ever bound by name.
var portCursor = os.Getpid() * 131

// listenRange returns the ports [lo, hi) to pick listen addresses from.
func listenRange() (lo, hi int) {
	lo, hi = 10000, 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if eph, err := strconv.Atoi(f[0]); err == nil && eph > lo+1000 {
				hi = eph
			}
		}
	}
	return lo, hi
}

// allocAddrs picks n distinct free localhost TCP addresses below the
// ephemeral port range, probing each by binding it once.
func allocAddrs(n int) ([]string, error) {
	lo, hi := listenRange()
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("bench: no free port in [%d,%d) after %d tries", lo, hi, tries)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", lo+portCursor%(hi-lo))
		portCursor++
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// procUsage is a /proc/<pid> sample of one process.
type procUsage struct {
	cpu   time.Duration // utime + stime
	rssMB float64
}

// clkTck is the kernel's USER_HZ; it is 100 on every Linux port Go
// supports.
const clkTck = 100

// readProc samples /proc/<pid>/stat. Field 2 (comm) may contain
// spaces, so fields are counted from the closing parenthesis.
func readProc(pid int) (procUsage, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procUsage{}, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:]) // f[0] is field 3 (state)
	if len(f) < 22 {
		return procUsage{}, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, _ := strconv.ParseInt(f[12], 10, 64) // field 15
	rss, _ := strconv.ParseInt(f[21], 10, 64)   // field 24, pages
	return procUsage{
		cpu:   time.Duration(utime+stime) * time.Second / clkTck,
		rssMB: float64(rss) * float64(os.Getpagesize()) / (1 << 20),
	}, nil
}

// usageOf sums readProc over pids; processes that have gone are
// skipped.
func usageOf(pids []int) procUsage {
	var sum procUsage
	for _, pid := range pids {
		if u, err := readProc(pid); err == nil {
			sum.cpu += u.cpu
			sum.rssMB += u.rssMB
		}
	}
	return sum
}
