package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Why the benchmark arranges the CPUs itself. On the 2-vCPU reference host,
// with load generator and daemon sharing both cores under the kernel's
// placement, the same build measured 4600 to 7500 cycles/s from one run to
// the next and every other metric moved with it: each request is a ping-pong
// between two processes, so what a run measured was mostly which threads
// happened to share a core and how long a halted vCPU took to wake. Two
// arrangements take that out (NOISE.md has the runs with each switched off):
//
//   - the load generator stays on the last allowed CPU. The daemons keep every
//     CPU, as in production (GOMAXPROCS unset): confined to the others they
//     would, on two cores, run on one, and a monitor sweep or a select would
//     then stall every lease behind it, which is not the system as shipped;
//   - a spinner in the SCHED_IDLE class sits on every CPU, so no vCPU halts
//     between requests (waking a halted vCPU costs a trip through the
//     hypervisor whose length depends on the host's other tenants), while any
//     real work preempts the spinner at once.
//
// A run the kernel refuses either arrangement fails: its numbers could not
// be compared with an arranged run's, and nothing in the result line could
// say so.

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64 // 1024 CPUs

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// getAffinity reads the calling thread's allowed CPUs.
func getAffinity() (*cpuSet, error) {
	s := &cpuSet{}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setAffinity binds one thread (0: the calling thread) to the set.
func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return fmt.Errorf("bench: sched_setaffinity: %w", errno)
	}
	return nil
}

// arrange pins every existing thread of the load generator to the last
// allowed CPU (threads created later inherit it) and returns the CPUs the
// benchmark may use. With a single CPU there is nothing to separate.
func arrange() (allowed *cpuSet, note string, err error) {
	allowed, err = getAffinity()
	if err != nil {
		return nil, "", err
	}
	cpus := allowed.list()
	if len(cpus) < 2 {
		return allowed, fmt.Sprintf("loadgen unpinned, daemons and idle-class spinners on cpus %v", cpus), nil
	}
	last := cpus[len(cpus)-1]
	gen := &cpuSet{}
	gen.set(last)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, "", err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the listing.
		if err := setAffinity(tid, gen); err != nil && !errors.Is(err, syscall.ESRCH) {
			return nil, "", err
		}
	}
	// The generator's goroutines sleep in nanosleep(2), which holds their P
	// in a syscall; spare Ps keep the connection readers runnable meanwhile.
	runtime.GOMAXPROCS(4)
	return allowed, fmt.Sprintf("loadgen on cpu %d, daemons and idle-class spinners on cpus %v", last, cpus), nil
}

// spawner starts child processes from one OS thread that lives as long as
// the process: PR_SET_PDEATHSIG fires when the thread that forked the child
// exits, so only a thread that never exits makes it mean "when the benchmark
// dies". The thread keeps every allowed CPU, which its children inherit.
type spawner struct {
	reqs chan spawnReq
}

type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

func newSpawner(allowed *cpuSet) (*spawner, error) {
	sp := &spawner{reqs: make(chan spawnReq)}
	ready := make(chan error)
	go func() {
		runtime.LockOSThread() // for good
		ready <- setAffinity(0, allowed)
		for req := range sp.reqs {
			req.done <- req.cmd.Start()
		}
	}()
	return sp, <-ready
}

// start runs cmd in its own process group and has the kernel kill it should
// the benchmark die without cleaning up.
func (sp *spawner) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	req := spawnReq{cmd: cmd, done: make(chan error, 1)}
	sp.reqs <- req
	return <-req.done
}

const schedIdle = 5 // SCHED_IDLE

// burnMain is the body of `bench -burn <cpu>`: bind to the CPU, drop to
// SCHED_IDLE and spin until killed or orphaned. It never returns.
func burnMain(arg string) {
	runtime.LockOSThread()
	cpu, err := strconv.Atoi(arg)
	if err != nil || cpu < 0 || cpu >= len(cpuSet{})*64 {
		fatal(fmt.Errorf("bench: -burn %q: want a cpu number", arg))
	}
	one := &cpuSet{}
	one.set(cpu)
	if err := setAffinity(0, one); err != nil {
		fatal(err)
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fatal(fmt.Errorf("bench: sched_setscheduler(SCHED_IDLE): %w", errno))
	}
	fmt.Println(burning)
	parent := os.Getppid()
	for {
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		}
		if os.Getppid() != parent {
			os.Exit(0)
		}
	}
}

// burning is what a spinner prints once it is bound and in its class.
const burning = "burning"

// startBurners puts one idle-class spinner on every allowed CPU, tracked by
// f, and returns once each has said it is in place.
func startBurners(sp *spawner, allowed *cpuSet, f *fleet) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, cpu := range allowed.list() {
		d, err := f.spawn(sp, self, fmt.Sprintf("burner-%d", cpu), "", "-burn", strconv.Itoa(cpu))
		if err != nil {
			return err
		}
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(d.stderr.String(), burning); {
			select {
			case <-d.exited:
				return d.failure("exited")
			default:
			}
			if time.Now().After(deadline) {
				return d.failure("not in place in time")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
