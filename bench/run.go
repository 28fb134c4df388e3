package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
)

// Phase lengths as shares of the --seconds budget. The warm-up is extra and
// discarded.
const (
	closedShare = 0.3
	pacedShare  = 0.4
	browseShare = 0.3

	// browsePhaseRate is the select rate of the browse phase, the rate of
	// lease_browse's own stream.
	browsePhaseRate = 5

	warmup = 1500 * time.Millisecond

	// defaultRounds is how many times a run boots its daemons and measures
	// them; see run.
	defaultRounds = 4

	bootTimeout   = 30 * time.Second
	shutdownGrace = 10 * time.Second

	// crashHold is the lease set the durable drill carries across kill -9,
	// and crashProbe how many fresh allocations then look for a double grant.
	crashHold  = 64
	crashProbe = 256
)

// runner carries what every phase of one run needs.
type runner struct {
	w     *workload
	seed  int
	bin   string // actypd binary
	tmp   string // scratch directory inside the checkout
	fleet *fleet
	check *oracle
	site  *site // the daemons of the latest boot, for failure reports

	burners *fleet // idle-class spinners, see cpu.go
	rounds  int    // boots per run (0: defaultRounds)
}

// site is one booted set of daemons.
type site struct {
	daemons []*daemon // client endpoint first
	addr    string
	jdir    string // journal directory ("" without durability)
	took    time.Duration
}

func (s *site) stop(f *fleet) {
	for _, d := range s.daemons {
		d.terminate(shutdownGrace)
		f.forget(d)
	}
	if s.jdir != "" {
		_ = os.RemoveAll(s.jdir) // scratch data; the whole tmp dir goes at exit anyway
	}
}

func (s *site) alive() error {
	for _, d := range s.daemons {
		if err := d.alive(); err != nil {
			return err
		}
	}
	return nil
}

func (s *site) cpuTicks() (int64, error) {
	var sum int64
	for _, d := range s.daemons {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (s *site) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range s.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// daemonArgs are the flags every benchmark daemon shares: the production
// defaults (codec negotiation, lanes, GOMAXPROCS) are left alone.
func (r *runner) daemonArgs(addr string, extra ...string) []string {
	args := []string{
		"-addr", addr,
		"-machines", fmt.Sprint(fleetSize),
		"-profile", "local",
		"-lease-ttl", "30s",
		"-monitor", r.w.monitor,
	}
	return append(args, extra...)
}

// boot starts the workload's daemons and warms every pool: one allocate and
// release per query. The elapsed time, first exec to last warm pool, is one
// setup_s sample.
func (r *runner) boot() (*site, error) {
	s := &site{}
	deadline := time.Now().Add(bootTimeout)
	begin := time.Now()
	switch {
	case r.w.xdomain:
		// The two-node partitioned mesh of .claude/skills/verify/SKILL.md.
		// -peer-addrs dials at start-up and a failed dial is fatal, so the
		// peerless node nb boots first and must be listening on its stage
		// endpoint before na starts. Static pins name a node by its
		// stage-served manager, "<node-name>-0".
		var addrs [4]string
		for i := range addrs {
			a, err := freeAddr()
			if err != nil {
				return nil, err
			}
			addrs[i] = a
		}
		naAddr, naStage, nbAddr, nbStage := addrs[0], addrs[1], addrs[2], addrs[3]
		nb, err := r.fleet.spawn(env.sp, r.bin, "nb", nbAddr, r.daemonArgs(nbAddr,
			"-stage-addr", nbStage, "-node-name", "nb", "-own-domains", "purdue,upc=na-0")...)
		if err != nil {
			return nil, err
		}
		s.daemons = []*daemon{nb}
		if err := nb.waitListening(nbStage, deadline); err != nil {
			return s, err
		}
		na, err := r.fleet.spawn(env.sp, r.bin, "na", naAddr, r.daemonArgs(naAddr,
			"-stage-addr", naStage, "-node-name", "na", "-own-domains", "upc,purdue=nb-0", "-peer-addrs", nbStage)...)
		if err != nil {
			return s, err
		}
		s.daemons = []*daemon{na, nb}
		s.addr = naAddr
	default:
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		var extra []string
		if r.w.durable {
			s.jdir, err = os.MkdirTemp(r.tmp, "journal-")
			if err != nil {
				return nil, err
			}
			// 3 s snapshots: two snapshot+compaction rounds in every round's
			// measured five seconds.
			extra = []string{"-journal-dir", s.jdir, "-journal-fsync", "interval", "-snapshot-interval", "3s"}
		}
		d, err := r.fleet.spawn(env.sp, r.bin, "actypd", addr, r.daemonArgs(addr, extra...)...)
		if err != nil {
			return s, err
		}
		s.daemons = []*daemon{d}
		s.addr = addr
	}
	if err := s.daemons[0].waitListening(s.addr, deadline); err != nil {
		return s, err
	}
	c, err := core.DialOpts(s.addr, netsim.Local(), core.DialConfig{})
	if err != nil {
		return s, s.daemons[0].failure("dial: " + err.Error())
	}
	defer c.Close()
	for _, q := range r.w.queries {
		g, err := c.Request(q)
		if err != nil {
			return s, s.daemons[0].failure(fmt.Sprintf("warm %q: %v", q, err))
		}
		if err := c.Release(g); err != nil {
			return s, s.daemons[0].failure(fmt.Sprintf("warm release %q: %v", q, err))
		}
	}
	s.took = time.Since(begin)
	return s, nil
}

// result is everything one end-to-end run measured.
type result struct {
	metrics   map[string]float64 // end-to-end, by name
	loadgen   map[string]float64 // context: tails, lateness, sample counts
	attempted [nOps]int
	failed    [nOps]int
}

// tally is what the rounds of one run add up to.
type tally struct {
	setups, rss            []float64 // per boot, per round
	closed, paced, browsed samples
	closedSeconds          float64 // wall time of the closed phases
	cpuTicks               int64   // daemon CPU over the paced phases
	ops                    samples // warm-up, browse-phase leases, drill: counted, not timed
}

// run executes one full end-to-end run of the workload: several rounds, each
// on freshly booted daemons. Set-up is a quarter-second event, so one boot
// would make setup_s mostly noise; and a run that samples four daemon
// processes does not inherit the luck of one heap layout. What the rounds add
// up to is reported across them: latency percentiles over the pooled samples,
// cycles over the pooled phase time, set-up and memory as the median round.
func (r *runner) run(seconds float64) (*result, error) {
	rounds := r.rounds
	if rounds == 0 {
		rounds = defaultRounds
	}
	var t tally
	for i := 0; i < rounds; i++ {
		s, err := r.boot()
		r.site = s
		if err == nil {
			err = r.round(s, seconds/float64(rounds), i == rounds-1, &t)
		}
		if s != nil {
			s.stop(r.fleet)
		}
		if err != nil {
			return nil, err
		}
	}

	res := &result{metrics: map[string]float64{}, loadgen: map[string]float64{}}
	for _, s := range []*samples{&t.ops, &t.closed, &t.paced, &t.browsed} {
		for k := 0; k < nOps; k++ {
			res.attempted[k] += s.attempted[k]
			res.failed[k] += s.failed[k]
		}
	}
	if t.closed.cycles == 0 || t.paced.cycles == 0 || len(t.paced.alloc) == 0 || len(t.browsed.sel) == 0 {
		return nil, errors.New("bench: a phase completed no operation")
	}
	alloc := sortedCopy(t.paced.alloc)
	res.metrics["setup_s"] = median(t.setups)
	res.metrics["cycles_per_s"] = float64(t.closed.cycles) / t.closedSeconds
	res.metrics["closed_alloc_p50_ms"] = percentile(sortedCopy(t.closed.alloc), 50)
	res.metrics["alloc_slo_pct"] = 100 * float64(t.paced.sloMet) / float64(t.paced.attempted[opAllocate])
	res.metrics["cpu_us_per_cycle"] = float64(t.cpuTicks) * usPerTick / float64(t.paced.cycles)
	res.metrics["peak_rss_mb"] = median(t.rss)
	res.metrics["select_p50_ms"] = percentile(sortedCopy(t.browsed.sel), 50)

	late, cyc := sortedCopy(t.paced.late), sortedCopy(t.paced.cycle)
	// The issue's alloc_p50_ms, the paced-phase median from due time. At a
	// third of the load it is mostly the wake-up of an idle process and spread
	// by 16-25% within a set on the reference host (NOISE.md), wider than any
	// bound the driver accepts, so it is reported here and not gated.
	res.loadgen["loadgen.alloc_p50_ms"] = percentile(alloc, 50)
	res.loadgen["loadgen.alloc_p99_ms"] = percentile(alloc, 99)
	res.loadgen["loadgen.alloc_p999_ms"] = percentile(alloc, 99.9)
	res.loadgen["loadgen.cycle_p50_ms"] = percentile(cyc, 50)
	res.loadgen["loadgen.late_p99_ms"] = percentile(late, 99)
	res.loadgen["loadgen.late_max_ms"] = late[len(late)-1]
	res.loadgen["loadgen.samples"] = float64(len(alloc))
	res.loadgen["loadgen.select_samples"] = float64(len(t.browsed.sel))
	return res, nil
}

// round drives one booted site through warm-up, closed phase, paced phase
// and browse phase, for the given measured seconds, and adds what it saw to
// t.
func (r *runner) round(s *site, seconds float64, last bool, t *tally) error {
	t.setups = append(t.setups, s.took.Seconds())
	clients := make([]*leaseClient, r.w.clients)
	for i := range clients {
		c, err := core.DialOpts(s.addr, netsim.Local(), core.DialConfig{})
		if err != nil {
			return s.daemons[0].failure("dial: " + err.Error())
		}
		defer c.Close()
		clients[i] = &leaseClient{c: c, queries: r.w.queries, next: r.seed + i, renew: r.w.renew, check: r.check}
	}
	// The select stream has the second connection: its own where the lease
	// load uses one, otherwise the one lease client 1 gives up for the browse
	// phase (at most nproc connections per run).
	browseConn := clients[len(clients)-1].c
	if len(clients) < 2 {
		c, err := core.DialOpts(s.addr, netsim.Local(), core.DialConfig{})
		if err != nil {
			return s.daemons[0].failure("dial: " + err.Error())
		}
		defer c.Close()
		browseConn = c
	}
	browse, err := newBrowseClient(browseConn, selectPreds, r.seed+len(t.setups), r.check)
	if err != nil {
		return err
	}
	phase := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	closedLoops := func(d time.Duration) (*samples, time.Duration) {
		begin := time.Now()
		end := begin.Add(d)
		sm := each(clients, func(_ int, lc *leaseClient) *samples { return lc.closedLoop(end) })
		return sm, time.Since(begin)
	}

	// Warm-up, discarded except for its op counts: long enough for the
	// closed loop to touch every machine once, which is when the daemon has
	// built its per-machine state and its memory has stopped growing.
	warm, _ := closedLoops(warmup)
	t.ops.merge(warm)
	if err := s.alive(); err != nil {
		return err
	}

	closed, took := closedLoops(phase(closedShare))
	t.closed.merge(closed)
	t.closedSeconds += took.Seconds()
	if err := s.alive(); err != nil {
		return err
	}

	// Paced phase: every lease client at its share of the workload's rate,
	// beside the select stream where the workload has one.
	cpu0, err := s.cpuTicks()
	if err != nil {
		return err
	}
	paced, browsed := r.pacedLoops(phase(pacedShare), clients, browse, r.w.browseRate)
	cpu1, err := s.cpuTicks()
	if err != nil {
		return err
	}
	t.cpuTicks += cpu1 - cpu0
	t.paced.merge(paced)
	t.browsed.merge(browsed)
	if err := s.alive(); err != nil {
		return err
	}

	// Browse phase: lease_browse's traffic mix on this workload's daemons.
	// Lease client 0 keeps its paced rate, the second connection carries the
	// select stream. On lease_browse itself this is more of the paced phase.
	// Only the selects are timed; the lease cycles keep the daemon as busy as
	// a browsing user finds it (against an idle daemon the select median
	// moved by 28% between two sets of runs, see NOISE.md).
	leases, browsed := r.pacedLoops(phase(browseShare), clients[:1], browse, browsePhaseRate)
	t.ops.merge(leases)
	t.browsed.merge(browsed)
	if err := s.alive(); err != nil {
		return err
	}

	// Memory high-water mark of the daemons that served the round.
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	t.rss = append(t.rss, rss)

	if r.w.durable && last {
		drill, _, err := r.crashDrill(s, clients[0])
		if err != nil {
			return err
		}
		t.ops.merge(drill)
	}
	return nil
}

// each runs f for every client at once and adds up what they measured.
func each(clients []*leaseClient, f func(i int, lc *leaseClient) *samples) *samples {
	out := make([]*samples, len(clients))
	var wg sync.WaitGroup
	for i, lc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f(i, lc)
		}()
	}
	wg.Wait()
	total := &samples{}
	for _, o := range out {
		total.merge(o)
	}
	return total
}

// pacedLoops runs the given lease clients open-loop for d, each at the
// workload's per-connection rate, and beside them the select stream at
// browseRate (0: none). Client i's schedule is shifted by i/rate so the
// clients interleave instead of sending in lockstep.
func (r *runner) pacedLoops(d time.Duration, clients []*leaseClient, browse *browseClient, browseRate float64) (leases, browsed *samples) {
	begin := time.Now().Add(10 * time.Millisecond)
	end := begin.Add(d)
	perClient := r.w.rate / float64(r.w.clients)
	browsed = &samples{}
	var wg sync.WaitGroup
	if browseRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			browsed = browse.pacedLoop(begin, end, browseRate)
		}()
	}
	leases = each(clients, func(i int, lc *leaseClient) *samples {
		return lc.pacedLoop(dueTime(begin, i, r.w.rate), end, perClient)
	})
	wg.Wait()
	return leases, browsed
}

// crashDrill holds crashHold leases, kills the daemon with SIGKILL, restarts
// it on the same journal directory and address, and proves that every held
// lease still renews and that none of the held machines is granted again.
// It also reports how long the way back took: exec of the new daemon to the
// first renewed lease.
func (r *runner) crashDrill(s *site, lc *leaseClient) (sm *samples, restartToRenew time.Duration, err error) {
	sm = &samples{}
	old := s.daemons[0]
	var held []*core.Grant
	grab := func(n int) error {
		for i := 0; i < n; i++ {
			q := lc.queries[i%len(lc.queries)]
			sm.attempted[opAllocate]++
			g, err := lc.c.Request(q)
			if err != nil {
				sm.failed[opAllocate]++
				return fmt.Errorf("crash drill: allocate %q: %w", q, err)
			}
			r.check.granted(g)
			held = append(held, g)
		}
		return nil
	}
	if err := grab(crashHold); err != nil {
		return nil, 0, old.failure(err.Error())
	}
	// fsync=interval flushes on a 100 ms tick; what the drill asserts is
	// recovery of acknowledged-and-flushed grants, not the policy's window.
	time.Sleep(300 * time.Millisecond)
	old.kill()
	r.fleet.forget(old)

	d, err := r.fleet.spawn(env.sp, r.bin, old.name, old.addr, old.args...)
	if err != nil {
		return nil, 0, err
	}
	s.daemons[0] = d
	if err := d.waitListening(d.addr, time.Now().Add(bootTimeout)); err != nil {
		return nil, 0, err
	}
	for i, g := range held {
		sm.attempted[opRenew]++
		if err := lc.c.Renew(g); err != nil {
			sm.failed[opRenew]++
			return nil, 0, d.failure(fmt.Sprintf("crash drill: lease %s on %s did not survive the restart: %v", g.Lease.ID, g.Lease.Machine, err))
		}
		if i == 0 {
			restartToRenew = time.Since(d.start)
		}
	}
	// Fresh grants while the survivors are held: oracle.granted flags any
	// that lands on a held machine.
	if err := grab(crashProbe); err != nil {
		return nil, 0, d.failure(err.Error())
	}
	for _, g := range held {
		sm.attempted[opRelease]++
		r.check.releasing(g)
		if err := lc.c.Release(g); err != nil {
			sm.failed[opRelease]++
			return nil, 0, d.failure(fmt.Sprintf("crash drill: release %s: %v", g.Lease.ID, err))
		}
	}
	return sm, restartToRenew, nil
}

// newRunner prepares the scratch directory and the daemon binary.
func newRunner(w *workload, seed int) (*runner, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, bin: bin, tmp: tmp, fleet: &fleet{}, check: newOracle(), burners: &fleet{}}
	if err := startBurners(env.sp, env.allowed, r.burners); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close kills whatever is still running and removes the scratch directory.
func (r *runner) close() {
	r.fleet.killAll()
	r.burners.killAll()
	_ = os.RemoveAll(r.tmp) // scratch only
}

// stderrTails joins the captured stderr of the latest boot's daemons,
// running or not.
func (r *runner) stderrTails() string {
	var b strings.Builder
	if r.site == nil {
		return ""
	}
	for _, d := range r.site.daemons {
		fmt.Fprintf(&b, "--- stderr of %s ---\n%s", d.name, d.stderr.String())
	}
	return b.String()
}
