// Command bench is the repository's end-to-end benchmark: it builds
// ./cmd/actypd of the checked-out commit, runs it as real processes on
// loopback, drives one of four lease workloads through core.Client, checks
// every reply, and prints every metric by name and unit. See README.md.
//
//	bash bench/run.sh --workload lease_local --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                 # all four workloads, end to end
//	bash bench/run.sh --trace 1       # per-layer table of all four
//	bash bench/run.sh -selfcheck      # two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is the process-wide CPU arrangement, made once in main (cpu.go).
var env struct {
	allowed *cpuSet
	sp      *spawner
	note    string // for the header
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-burn" {
		burnMain(os.Args[2])
	}
	var (
		name      = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = flag.Int("seed", 1, "seeds the query rotation, the select predicates and the crash-drill hold set")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per run (closed 30%, paced 40%, browse 30%)")
		trace     = flag.Int("trace", 0, "1: run the in-process traced replica and report the per-layer metrics instead")
		quick     = flag.Bool("quick", false, "4-second runs: a smoke test, not a measurement")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets on this build and compare them against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("bench: unexpected argument %q", flag.Arg(0)))
	}
	if *quick {
		*seconds = 4
	}
	if *seconds < 1 || *seconds > 120 {
		fatal(fmt.Errorf("bench: -seconds %v: want 1..120", *seconds))
	}

	which := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		which = []workload{*w}
	}

	if *selfcheck {
		// Every run is a child process that arranges its own CPUs; pinning
		// this one would hand the children a single CPU.
		env.note = "selfcheck: the runs are child processes, each with its own arrangement"
		printHeader()
		if err := runSelfcheck(which, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	var err error
	if env.allowed, env.note, err = arrange(); err != nil {
		fatal(err)
	}
	if env.sp, err = newSpawner(env.allowed); err != nil {
		fatal(err)
	}
	printHeader()
	var last *resultLine
	for i := range which {
		var line *resultLine
		var err error
		if *trace != 0 {
			line, err = runTraced(&which[i], *seed, *seconds)
		} else {
			line, err = runEndToEnd(&which[i], *seed, *seconds)
		}
		if err != nil {
			fatal(err)
		}
		last = line
	}
	// The driver asks for one workload and reads the last line; with
	// several workloads the last line is the last workload's.
	out, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// printHeader records what produced the numbers: a number without its
// commit, toolchain and host is not comparable to anything.
func printHeader() {
	commit := headCommit()
	host, _ := os.Hostname() // an empty host name is still a header
	fmt.Printf("# actyp bench: commit %s, %s, host %s, nproc %d, GOMAXPROCS %d (daemons: unset)\n# %s\n",
		commit, runtime.Version(), host, runtime.NumCPU(), runtime.GOMAXPROCS(0), env.note)
}

// headCommit reads the checked-out commit straight from .git, so that the
// header costs no process and no read outside the checkout. The driver's
// checkouts are not git repositories; the numbers it collects are keyed by
// the commit it checked out.
func headCommit() string {
	const unknown = "unknown (not a git checkout)"
	root, err := repoRoot()
	if err != nil {
		return unknown
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return unknown
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return name // a packed ref: the branch name still says which line of history
		}
		ref = strings.TrimSpace(string(raw))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// guard kills the run's daemons when the process is told to stop or a run
// outlives its budget, so no exit path leaves a daemon behind.
func guard(r *runner, budget time.Duration) (disarm func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v: stopping the daemons\n", s)
		case <-time.After(budget):
			fmt.Fprintf(os.Stderr, "bench: workload %s outlived its %s budget\n%s", r.w.name, budget, r.stderrTails())
		}
		r.close()
		os.Exit(2)
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// runEndToEnd runs one workload against real daemons and prints its table.
func runEndToEnd(w *workload, seed int, seconds float64) (*resultLine, error) {
	r, err := newRunner(w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// Phases, four boots, the crash drill and the backlog grace fit well
	// inside this; a daemon that hangs does not.
	disarm := guard(r, time.Duration(seconds*float64(time.Second))+90*time.Second)
	defer disarm()

	res, err := r.run(seconds)
	if err != nil {
		return nil, err
	}
	line := &resultLine{Metrics: map[string]metricValue{}}
	for k := 0; k < nOps; k++ {
		line.Attempted += res.attempted[k]
		line.Failed += res.failed[k]
	}
	faults := r.check.report()
	line.Correct = len(faults) == 0 && line.Failed == 0
	for _, m := range endToEnd {
		line.Metrics[m.name] = metricValue{Value: res.metrics[m.name], Unit: m.unit}
	}
	fmt.Printf("\n## %s (seed %d, %gs): %s\n", w.name, seed, seconds, w.why)
	for _, m := range endToEnd {
		fmt.Printf("%-28s %14.4f %s\n", m.name, res.metrics[m.name], m.unit)
	}
	names := make([]string, 0, len(res.loadgen))
	for n := range res.loadgen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f\n", n, res.loadgen[n])
	}
	for k := 0; k < nOps; k++ {
		fmt.Printf("ops.%-24s %14d attempted %d failed\n", opNames[k], res.attempted[k], res.failed[k])
	}
	if !line.Correct {
		return nil, fmt.Errorf("bench: workload %s: %d of %d operations failed, %d correctness faults:\n  %s\n%s",
			w.name, line.Failed, line.Attempted, len(faults), strings.Join(faults, "\n  "), r.stderrTails())
	}
	return line, nil
}
