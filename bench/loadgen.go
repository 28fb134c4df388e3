package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"actyp/internal/core"
	"actyp/internal/query"
)

// Operation kinds, counted separately against attempts.
const (
	opAllocate = iota
	opRenew
	opRelease
	opSelect
	nOps
)

var opNames = [nOps]string{"allocate", "renew", "release", "select"}

// sloLimit is the latency limit of alloc_slo_pct, measured from the instant
// the allocate was due.
const sloLimit = 5 * time.Millisecond

// selectBatch is the record count every browse request asks for.
const selectBatch = 64

// oracle is the client-side proof of the lease promise: no machine is held
// by two live leases at once, across every client of the run and across a
// daemon crash. It also collects every unexpected error.
type oracle struct {
	mu     sync.Mutex
	held   map[string]string // machine -> lease id
	faults []string
}

func newOracle() *oracle { return &oracle{held: make(map[string]string)} }

func (o *oracle) fault(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.faults) < 20 { // the first few tell the story; a broken run has thousands
		o.faults = append(o.faults, fmt.Sprintf(format, args...))
	}
}

// granted records a new lease and reports a double grant.
func (o *oracle) granted(g *core.Grant) {
	o.mu.Lock()
	prev, dup := o.held[g.Lease.Machine]
	o.held[g.Lease.Machine] = g.Lease.ID
	o.mu.Unlock()
	if dup {
		o.fault("machine %s granted as lease %s while lease %s still holds it", g.Lease.Machine, g.Lease.ID, prev)
	}
}

// releasing forgets a lease. It runs BEFORE the release is sent: once the
// daemon has the release it may grant the machine to another client, whose
// granted() must not find the stale entry.
func (o *oracle) releasing(g *core.Grant) {
	o.mu.Lock()
	delete(o.held, g.Lease.Machine)
	o.mu.Unlock()
}

func (o *oracle) report() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.faults...)
}

// samples is what one generator goroutine measured in one phase.
type samples struct {
	attempted, failed [nOps]int
	cycles            int
	alloc             []float64 // ms: allocate reply minus start (closed) or due time (paced)
	cycle             []float64 // ms: release reply minus start or due time
	late              []float64 // ms: how long after its due time a paced request was sent
	sel               []float64 // ms: select reply minus due time
	sloMet            int
}

func (s *samples) merge(o *samples) {
	for k := 0; k < nOps; k++ {
		s.attempted[k] += o.attempted[k]
		s.failed[k] += o.failed[k]
	}
	s.cycles += o.cycles
	s.sloMet += o.sloMet
	s.alloc = append(s.alloc, o.alloc...)
	s.cycle = append(s.cycle, o.cycle...)
	s.late = append(s.late, o.late...)
	s.sel = append(s.sel, o.sel...)
}

func (s *samples) totals() (attempted, failed int) {
	for k := 0; k < nOps; k++ {
		attempted += s.attempted[k]
		failed += s.failed[k]
	}
	return
}

// leaseClient drives lease cycles over one connection.
type leaseClient struct {
	c       *core.Client
	queries []string
	next    int // rotation position, seeded
	renew   bool
	check   *oracle
}

// cycle runs allocate -> (renew) -> release of one lease, timing from ref:
// the send instant in a closed loop, the due time in an open loop.
func (lc *leaseClient) cycle(ref time.Time, s *samples) {
	text := lc.queries[lc.next%len(lc.queries)]
	lc.next++

	s.attempted[opAllocate]++
	g, err := lc.c.Request(text)
	if err != nil {
		s.failed[opAllocate]++
		lc.check.fault("allocate %q: %v", text, err)
		return
	}
	allocDone := time.Since(ref)
	lc.check.granted(g)
	s.alloc = append(s.alloc, ms(allocDone))
	if allocDone <= sloLimit {
		s.sloMet++
	}

	if lc.renew {
		s.attempted[opRenew]++
		if err := lc.c.Renew(g); err != nil {
			s.failed[opRenew]++
			lc.check.fault("renew %s: %v", g.Lease.ID, err)
		}
	}

	s.attempted[opRelease]++
	lc.check.releasing(g)
	if err := lc.c.Release(g); err != nil {
		s.failed[opRelease]++
		lc.check.fault("release %s: %v", g.Lease.ID, err)
		return
	}
	s.cycle = append(s.cycle, ms(time.Since(ref)))
	s.cycles++
}

// closedLoop runs cycles back to back until end.
func (lc *leaseClient) closedLoop(end time.Time) *samples {
	s := &samples{}
	for {
		now := time.Now()
		if !now.Before(end) {
			return s
		}
		lc.cycle(now, s)
	}
}

// spinWindow is how close to a due time the generator sleeps; it yields
// through the rest. nanosleep overshoots by 60-250us on the reference
// host, so the window covers the overshoot and the send is on time, while a
// generator with a 1 ms period still sleeps most of its idle time instead of
// spinning a core the daemon needs.
const spinWindow = 300 * time.Microsecond

// waitUntil blocks until t. It uses nanosleep(2) directly: the Go runtime
// rounds sub-millisecond timer waits up to a whole millisecond.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early EINTR return is caught by the loop
			continue
		}
		runtime.Gosched()
	}
}

// missGrace is how far past the end of a paced phase a generator keeps
// working off its backlog before it gives the remaining requests up as
// failed: an open loop must not hide a growing queue by running forever.
const missGrace = 3 * time.Second

// pacedLoop sends one cycle every 1/rate seconds from start until end,
// whether or not earlier cycles were slow, and times each from its due time.
func (lc *leaseClient) pacedLoop(start, end time.Time, rate float64) *samples {
	s := &samples{}
	for k := 0; ; k++ {
		due := dueTime(start, k, rate)
		if !due.Before(end) {
			return s
		}
		waitUntil(due)
		if time.Since(end) > missGrace {
			s.attempted[opAllocate]++
			s.failed[opAllocate]++
			lc.check.fault("paced allocate due %s after the phase start was never sent: backlog outlived the phase by %s", due.Sub(start), missGrace)
			continue
		}
		s.late = append(s.late, ms(time.Since(due)))
		lc.cycle(due, s)
	}
}

// browseClient issues paced 64-record selects over its own connection.
type browseClient struct {
	c     *core.Client
	preds []string
	conds []*query.Query // parsed preds, for checking replies
	next  int
	check *oracle
}

func newBrowseClient(c *core.Client, preds []string, seed int, check *oracle) (*browseClient, error) {
	bc := &browseClient{c: c, preds: preds, next: seed, check: check}
	for _, p := range preds {
		q, err := query.ParseBasic(p)
		if err != nil {
			return nil, fmt.Errorf("bench: select predicate %q: %w", p, err)
		}
		bc.conds = append(bc.conds, q)
	}
	return bc, nil
}

// selectOnce sends one select and proves the reply: exactly selectBatch
// records, each satisfying the predicate.
func (bc *browseClient) selectOnce(ref time.Time, s *samples) {
	i := bc.next % len(bc.preds)
	bc.next++
	s.attempted[opSelect]++
	ms_, total, err := bc.c.Select(bc.preds[i], selectBatch, false)
	took := time.Since(ref)
	if err != nil {
		s.failed[opSelect]++
		bc.check.fault("select %q: %v", bc.preds[i], err)
		return
	}
	if len(ms_) != selectBatch || total < selectBatch {
		s.failed[opSelect]++
		bc.check.fault("select %q: %d records of %d, want %d", bc.preds[i], len(ms_), total, selectBatch)
		return
	}
	for _, m := range ms_ {
		if !m.Attrs().MatchRsrc(bc.conds[i]) {
			s.failed[opSelect]++
			bc.check.fault("select %q: record %s does not satisfy the predicate", bc.preds[i], m.Static.Name)
			return
		}
	}
	s.sel = append(s.sel, ms(took))
}

func (bc *browseClient) pacedLoop(start, end time.Time, rate float64) *samples {
	s := &samples{}
	for k := 0; ; k++ {
		due := dueTime(start, k, rate)
		if !due.Before(end) {
			return s
		}
		waitUntil(due)
		s.late = append(s.late, ms(time.Since(due)))
		bc.selectOnce(due, s)
	}
}
