package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark creates lives: the actypd
// binary, the Go build cache (see run.sh), journal directories. It sits at
// the root of the checkout so a run never reads or writes outside it.
const buildDir = ".bench_build"

// repoRoot finds the checkout root: the directory above bench/ that holds
// the actyp module. The benchmark is started either from the root
// (`bash bench/run.sh`) or from bench/ (`go run .`).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "actypd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("bench: no cmd/actypd next to bench/: run from a checkout of the actyp repo")
}

// buildDaemon compiles ./cmd/actypd of the checked-out commit. A warm build
// cache makes this a sub-second no-op, so every run pays it and no run can
// measure a stale binary.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "actypd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/actypd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/actypd: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port by listening on :0 and closing again.
// The daemon binds it a moment later; nothing else on the host races for
// ephemeral ports in the gap that matters here.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stderrBuf keeps the tail of a daemon's stderr for failure reports.
type stderrBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const stderrKeep = 32 << 10

func (b *stderrBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if over := b.buf.Len() - stderrKeep; over > 0 {
		b.buf.Next(over)
	}
	return len(p), nil
}

func (b *stderrBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one child process in its own process group: an actypd, or an
// idle-class spinner (see cpu.go).
type daemon struct {
	name   string
	args   []string
	addr   string // client endpoint
	cmd    *exec.Cmd
	stderr *stderrBuf
	exited chan struct{} // closed once Wait returned
	start  time.Time     // instant of exec
}

// fleet tracks child processes a run started so that any exit path —
// success, failed check, watchdog, signal — kills them all and waits for
// them.
type fleet struct {
	mu      sync.Mutex
	daemons []*daemon
}

// spawn starts bin and tracks it.
func (f *fleet) spawn(sp *spawner, bin, name, addr string, args ...string) (*daemon, error) {
	d := &daemon{name: name, args: args, addr: addr, stderr: &stderrBuf{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.stderr
	d.cmd.Stdout = d.stderr
	d.start = time.Now()
	if err := sp.start(d.cmd); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported by whoever notices d.exited
		close(d.exited)
	}()
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	return d, nil
}

// killAll SIGKILLs every live daemon's process group and waits for the
// processes to be reaped.
func (f *fleet) killAll() {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

func (f *fleet) forget(d *daemon) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.daemons {
		if x == d {
			f.daemons = append(f.daemons[:i], f.daemons[i+1:]...)
			return
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill is a no-op on a daemon that was already reaped: its pid may belong
// to someone else by now.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // fails only when the group is already gone
	<-d.exited
}

// terminate asks for a clean shutdown and escalates to SIGKILL when the
// daemon has not exited within the grace period.
func (d *daemon) terminate(grace time.Duration) {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = syscall.Kill(d.pid(), syscall.SIGTERM) // fails only when the process is already gone
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.kill()
	}
}

func (d *daemon) failure(what string) error {
	return fmt.Errorf("bench: daemon %s (%s): %s\n--- stderr of %s ---\n%s", d.name, strings.Join(d.args, " "), what, d.name, d.stderr.String())
}

// waitListening polls addr every millisecond until something accepts a
// connection there, the daemon exits, or the deadline passes.
func (d *daemon) waitListening(addr string, deadline time.Time) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		select {
		case <-d.exited:
			return d.failure("exited before listening on " + addr)
		default:
		}
		if time.Now().After(deadline) {
			return d.failure("not listening on " + addr + " in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports an early exit as an error carrying the daemon's stderr.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return d.failure("exited during the run: " + d.cmd.ProcessState.String())
	default:
		return nil
	}
}

// cpuTicks is utime+stime of the process (all threads, live and reaped) in
// clock ticks, from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// comm may contain spaces; the fixed fields start after the last ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14 of the line
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// usPerTick converts /proc clock ticks: USER_HZ is 100 on every Linux ABI.
const usPerTick = 10000

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
