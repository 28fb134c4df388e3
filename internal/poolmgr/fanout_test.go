package poolmgr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
)

// fakePeer is a scripted remote pool manager: it answers Forward after a
// fixed delay with either a fresh lease or a scripted error, and records
// every lease it granted and every one released back, so tests can assert
// the first-win race never leaks loser capacity. Like a real pool, it
// refuses to release or renew a lease it did not grant or already took
// back, so "exactly one release succeeds" holds at the grantor.
type fakePeer struct {
	name     string
	delay    time.Duration
	grant    bool
	err      error
	renewErr error // scripted Renew failure (a dead grantor)

	mu       sync.Mutex
	seq      int
	granted  []*pool.Lease
	released []*pool.Lease
	renewed  []*pool.Lease
	visited  [][]string // copy of each visited list seen
	raw      [][]string // each visited list as passed, to catch later writes
}

func (p *fakePeer) Name() string { return p.name }

func (p *fakePeer) Forward(q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	p.mu.Lock()
	p.visited = append(p.visited, append([]string(nil), visited...))
	p.raw = append(p.raw, visited)
	p.mu.Unlock()
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if !p.grant {
		if p.err != nil {
			return nil, p.err
		}
		return nil, ErrUnresolvable
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	l := &pool.Lease{ID: fmt.Sprintf("%s-%d", p.name, p.seq), Machine: "m-" + p.name, Pool: p.name + "#0"}
	p.granted = append(p.granted, l)
	return l, nil
}

// ForwardContext ignores ctx, as a peer that cannot recall a call already
// sent does: a cancelled branch still runs out its delay, and a lease it
// grants late is the caller's to release.
func (p *fakePeer) ForwardContext(_ context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return p.Forward(q, ttl, visited)
}

func (p *fakePeer) Release(l *pool.Lease) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.holdsLocked(l.ID) {
		return fmt.Errorf("%s: unknown lease %s", p.name, l.ID)
	}
	p.released = append(p.released, l)
	return nil
}

func (p *fakePeer) Renew(l *pool.Lease) error {
	if p.renewErr != nil {
		return p.renewErr
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.holdsLocked(l.ID) {
		return fmt.Errorf("%s: unknown lease %s", p.name, l.ID)
	}
	p.renewed = append(p.renewed, l)
	return nil
}

// holdsLocked reports whether the peer granted id and has not taken it
// back. The caller holds p.mu.
func (p *fakePeer) holdsLocked(id string) bool {
	for _, l := range p.released {
		if l.ID == id {
			return false
		}
	}
	for _, l := range p.granted {
		if l.ID == id {
			return true
		}
	}
	return false
}

func (p *fakePeer) renewals() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.renewed)
}

func (p *fakePeer) counts() (granted, released int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.granted), len(p.released)
}

// ctxPeer is a fakePeer that honors cancellation: a cancelled branch
// returns ctx.Err() instead of sleeping out its delay.
type ctxPeer struct{ fakePeer }

func (p *ctxPeer) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	p.mu.Lock()
	p.visited = append(p.visited, append([]string(nil), visited...))
	p.mu.Unlock()
	if p.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(p.delay):
		}
	}
	if !p.grant {
		if p.err != nil {
			return nil, p.err
		}
		return nil, ErrUnresolvable
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	l := &pool.Lease{ID: fmt.Sprintf("%s-%d", p.name, p.seq), Machine: "m-" + p.name, Pool: p.name + "#0"}
	p.granted = append(p.granted, l)
	return l, nil
}

// fanoutManager builds a factory-less manager (every resolve is a miss)
// wired to the given peers.
func fanoutManager(t *testing.T, fanout int, hedge time.Duration, stats *metrics.FederationStats, peers ...directory.Forwarder) *Manager {
	t.Helper()
	dir := directory.New()
	for _, p := range peers {
		dir.AddPeer(p)
	}
	m, err := New(Config{Name: "pm-home", Dir: dir, Fanout: fanout, HedgeDelay: hedge, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitReleased polls until the peer has released n leases; drainLosers
// reaps asynchronously, so releases land after Resolve returns.
func waitReleased(t *testing.T, p *fakePeer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, rel := p.counts(); rel >= n {
			return
		}
		if time.Now().After(deadline) {
			g, rel := p.counts()
			t.Fatalf("peer %s: granted=%d released=%d, want released >= %d", p.name, g, rel, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanoutFirstWinReleasesLosers races three granting peers: the fast
// one wins, and both slow losers get their late leases released back.
func TestFanoutFirstWinReleasesLosers(t *testing.T) {
	fast := &fakePeer{name: "pm-fast", grant: true, delay: 2 * time.Millisecond}
	slow1 := &fakePeer{name: "pm-slow1", grant: true, delay: 60 * time.Millisecond}
	slow2 := &fakePeer{name: "pm-slow2", grant: true, delay: 60 * time.Millisecond}
	stats := metrics.NewFederationStats()
	m := fanoutManager(t, 3, 0, stats, slow1, fast, slow2)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-fast" {
		t.Errorf("winner = %q, want the fast peer's machine", lease.Machine)
	}
	waitReleased(t, slow1, 1)
	waitReleased(t, slow2, 1)
	if g, rel := fast.counts(); g != 1 || rel != 0 {
		t.Errorf("winner peer: granted=%d released=%d, want 1/0", g, rel)
	}
	snap := stats.Snapshot()
	if snap.Fanouts != 1 || snap.Wins != 1 || snap.Cancelled != 2 {
		t.Errorf("stats = %+v, want fanouts=1 wins=1 cancelled=2", snap)
	}
	if snap.Peers["pm-fast"].Wins != 1 {
		t.Errorf("per-peer win not counted: %+v", snap.Peers)
	}
}

// TestDelegatedLeaseReleasesThroughGrantor: a lease won through a peer
// must route its Release back through that peer — pool instance names
// are query signatures, so the grantor's instance and a local one
// collide on name, and a local release would report "unknown lease"
// while the peer's machine stays leased forever. Covers both the serial
// walk and the fan-out race, and checks the grantor refuses a second
// release.
func TestDelegatedLeaseReleasesThroughGrantor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanout int
	}{
		{"serial", 1},
		{"fanout", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := &fakePeer{name: "pm-peer", grant: true, delay: time.Millisecond}
			other := &fakePeer{name: "pm-other", delay: time.Millisecond} // never grants
			m := fanoutManager(t, tc.fanout, 0, nil, peer, other)

			lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if err := m.Release(lease); err != nil {
				t.Fatalf("release of delegated lease: %v", err)
			}
			if g, rel := peer.counts(); g != 1 || rel != 1 {
				t.Errorf("grantor: granted=%d released=%d, want 1/1", g, rel)
			}
			if err := m.Release(lease); err == nil {
				t.Error("second release should fail: the grantor already took the lease back")
			}
		})
	}
}

// TestDelegatedLeaseRenewsThroughGrantor: a lease won through a peer
// renews through that peer, because no local pool instance knows it. Its
// id names the peer, so renewing twice works and the release still routes
// back afterwards. Covers both the serial walk and the fan-out race.
func TestDelegatedLeaseRenewsThroughGrantor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fanout int
	}{
		{"serial", 1},
		{"fanout", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := &fakePeer{name: "pm-peer", grant: true, delay: time.Millisecond}
			other := &fakePeer{name: "pm-other", delay: time.Millisecond} // never grants
			m := fanoutManager(t, tc.fanout, 0, nil, peer, other)

			lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if want := "|pm-peer"; !strings.HasSuffix(lease.ID, want) {
				t.Fatalf("lease id %q does not end in its grantor hop %q", lease.ID, want)
			}
			for i := 0; i < 2; i++ {
				if err := m.Renew(lease); err != nil {
					t.Fatalf("renew %d of delegated lease: %v", i, err)
				}
			}
			if n := peer.renewals(); n != 2 {
				t.Errorf("grantor renewed %d times, want 2", n)
			}
			if n := other.renewals(); n != 0 {
				t.Errorf("non-grantor renewed %d times, want 0", n)
			}
			if err := m.Release(lease); err != nil {
				t.Fatalf("release after renew: %v", err)
			}
			if _, rel := peer.counts(); rel != 1 {
				t.Errorf("grantor released %d leases, want 1", rel)
			}
			if err := m.Renew(lease); err == nil {
				t.Error("renew after release should fail: the grantor no longer holds the lease")
			}
		})
	}
}

// TestDelegatedRenewTwoHops: a lease won over two delegation hops
// (pm-a -> pm-b -> pm-c, machines only at pm-c) renews hop by hop back to
// the pool that granted it, and still releases the same way.
func TestDelegatedRenewTwoHops(t *testing.T) {
	c, _, f := newManager(t, "pm-c", fleetDB(t, 8))
	defer f.CloseAll()
	chain := func(name string, peer directory.Forwarder) *Manager {
		dir := directory.New()
		dir.AddPeer(peer)
		m, err := New(Config{Name: name, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b := chain("pm-b", c)
	a := chain("pm-a", b)

	lease, err := a.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve over two hops: %v", err)
	}
	if want := "|pm-c|pm-b"; !strings.HasSuffix(lease.ID, want) {
		t.Fatalf("lease id %q does not end in its route %q", lease.ID, want)
	}
	if err := a.Renew(lease); err != nil {
		t.Fatalf("renew over two hops: %v", err)
	}
	if err := a.Release(lease); err != nil {
		t.Fatalf("release over two hops: %v", err)
	}
	if err := a.Release(lease); err == nil {
		t.Error("a second release over two hops succeeded")
	}
	if err := c.Renew(lease); err == nil {
		t.Error("the granting pool still renews a released lease")
	}
}

// TestDelegatedRenewDeadGrantor: a renewal the grantor cannot take fails
// with an error naming the peer, and the release still goes back through
// the grantor.
func TestDelegatedRenewDeadGrantor(t *testing.T) {
	down := errors.New("connection refused")
	peer := &fakePeer{name: "pm-peer", grant: true, renewErr: down}
	m := fanoutManager(t, 1, 0, nil, peer)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	err = m.Renew(lease)
	if err == nil || !strings.Contains(err.Error(), "pm-peer") || !errors.Is(err, down) {
		t.Fatalf("renew through a dead grantor = %v, want an error naming pm-peer and wrapping the cause", err)
	}
	if err := m.Release(lease); err != nil {
		t.Fatalf("release after failed renew: %v", err)
	}
	if _, rel := peer.counts(); rel != 1 {
		t.Errorf("grantor released %d leases, want 1", rel)
	}
}

// TestDelegatedRenewReleaseRace races renewals against the release of one
// delegated lease (run under -race): exactly one release reaches the
// grantor, and every renewal either reaches it or fails cleanly once the
// grantor has taken the lease back.
func TestDelegatedRenewReleaseRace(t *testing.T) {
	peer := &fakePeer{name: "pm-peer", grant: true}
	m := fanoutManager(t, 1, 0, nil, peer)
	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var releases sync.Map
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = m.Renew(lease)
		}()
		go func(i int) {
			defer wg.Done()
			releases.Store(i, m.Release(lease))
		}(i)
	}
	wg.Wait()
	ok := 0
	releases.Range(func(_, v any) bool {
		if v == nil {
			ok++
		}
		return true
	})
	if ok != 1 {
		t.Errorf("%d releases succeeded, want exactly 1", ok)
	}
	if _, rel := peer.counts(); rel != 1 {
		t.Errorf("grantor got %d releases, want 1", rel)
	}
}

// TestFanoutHedgeSuppressed: with a hedge delay longer than the first
// peer's answer, the race stays width-1 and no extra load lands on peers.
func TestFanoutHedgeSuppressed(t *testing.T) {
	fast := &fakePeer{name: "pm-fast", grant: true, delay: time.Millisecond}
	spare := &fakePeer{name: "pm-spare", grant: true, delay: time.Millisecond}
	stats := metrics.NewFederationStats()
	m := fanoutManager(t, 2, 500*time.Millisecond, stats, fast, spare)

	if _, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun")); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	snap := stats.Snapshot()
	if snap.Hedges != 0 {
		t.Errorf("hedges = %d, want 0 (first peer answered inside the delay)", snap.Hedges)
	}
	if g, _ := spare.counts(); g != 0 {
		t.Errorf("hedge peer was contacted %d times despite a fast first answer", g)
	}
}

// TestFanoutHedgeFires: the first peer stalls past the hedge delay, so a
// staggered second branch launches and wins; the stalled branch's late
// lease is released.
func TestFanoutHedgeFires(t *testing.T) {
	stall := &fakePeer{name: "pm-stall", grant: true, delay: 150 * time.Millisecond}
	backup := &fakePeer{name: "pm-backup", grant: true, delay: time.Millisecond}
	stats := metrics.NewFederationStats()
	m := fanoutManager(t, 2, 5*time.Millisecond, stats, stall, backup)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-backup" {
		t.Errorf("winner = %q, want the hedged backup peer", lease.Machine)
	}
	if snap := stats.Snapshot(); snap.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", snap.Hedges)
	}
	waitReleased(t, stall, 1)
}

// TestFanoutFailureReplacement: a failed branch is replaced by the next
// candidate immediately, so the race still finds the one granting peer
// even when it is last in line.
func TestFanoutFailureReplacement(t *testing.T) {
	bad1 := &fakePeer{name: "pm-bad1"}
	bad2 := &fakePeer{name: "pm-bad2"}
	good := &fakePeer{name: "pm-good", grant: true}
	m := fanoutManager(t, 2, 0, nil, bad1, bad2, good)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-good" {
		t.Errorf("winner = %q", lease.Machine)
	}
}

// TestFanoutAllFail: every branch failing yields ErrUnresolvable, exactly
// like the serial walk.
func TestFanoutAllFail(t *testing.T) {
	m := fanoutManager(t, 3, 0, nil,
		&fakePeer{name: "pm-a"}, &fakePeer{name: "pm-b"}, &fakePeer{name: "pm-c"})
	_, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if !errors.Is(err, ErrUnresolvable) {
		t.Errorf("err = %v, want ErrUnresolvable", err)
	}
}

// TestFanoutTTLShortCircuit: an ErrTTLExpired branch fails the whole race
// immediately — the paper's TTL death is global, not per branch — and a
// slower granting branch's lease still goes back.
func TestFanoutTTLShortCircuit(t *testing.T) {
	dead := &fakePeer{name: "pm-dead", err: ErrTTLExpired, delay: time.Millisecond}
	late := &fakePeer{name: "pm-late", grant: true, delay: 100 * time.Millisecond}
	m := fanoutManager(t, 2, 0, nil, dead, late)

	start := time.Now()
	_, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if !errors.Is(err, ErrTTLExpired) {
		t.Fatalf("err = %v, want ErrTTLExpired", err)
	}
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Errorf("TTL death waited %v for the slow branch; should short-circuit", elapsed)
	}
	waitReleased(t, late, 1)
}

// TestFanoutContextCancel: cancelling the caller's context settles the
// race with ctx.Err() and releases any lease that lands afterwards.
func TestFanoutContextCancel(t *testing.T) {
	slow1 := &ctxPeer{fakePeer{name: "pm-s1", grant: true, delay: time.Second}}
	slow2 := &fakePeer{name: "pm-s2", grant: true, delay: 50 * time.Millisecond}
	m := fanoutManager(t, 2, 0, nil, slow1, slow2)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := m.ForwardContext(ctx, basicQuery(t, "punch.rsrc.arch = sun"), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The ctx-aware peer exits empty; the blind one grants late and must be
	// released by the reaper.
	waitReleased(t, slow2, 1)
	if g, _ := slow1.counts(); g != 0 {
		t.Errorf("cancelled ctx-aware peer still granted %d leases", g)
	}
}

// TestFanoutSinglePeerStaysSerial: one candidate peer means no race to
// run; the serial path handles it and no fan-out is counted.
func TestFanoutSinglePeerStaysSerial(t *testing.T) {
	only := &fakePeer{name: "pm-only", grant: true}
	stats := metrics.NewFederationStats()
	m := fanoutManager(t, 4, 0, stats, only)
	if _, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun")); err != nil {
		t.Fatal(err)
	}
	if snap := stats.Snapshot(); snap.Fanouts != 0 {
		t.Errorf("fanouts = %d, want 0 for a single peer", snap.Fanouts)
	}
}

// TestFanoutVisitedNotAliased: each branch carries the caller's list, this
// manager, and every peer launched before it, in a copy of its own. The
// caller's slice is never written, and no branch (or downstream manager)
// may observe its list change after the call. This is the regression test
// for the in-loop append aliasing bug.
func TestFanoutVisitedNotAliased(t *testing.T) {
	peers := make([]directory.Forwarder, 6)
	fakes := make([]*fakePeer, 6)
	for i := range peers {
		fakes[i] = &fakePeer{name: fmt.Sprintf("pm-%d", i), delay: time.Duration(i) * time.Millisecond}
		peers[i] = fakes[i]
	}
	m := fanoutManager(t, 3, 0, nil, peers...)

	seed := []string{"pm-origin"}
	_, err := m.ForwardContext(context.Background(), basicQuery(t, "punch.rsrc.arch = sun"), 4, seed)
	if !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("err = %v", err)
	}
	if seed[0] != "pm-origin" {
		t.Fatalf("caller's visited slice mutated to %v", seed)
	}
	want := []string{"pm-origin", "pm-home"}
	for _, p := range fakes {
		p.mu.Lock()
		if len(p.visited) != 1 || fmt.Sprint(p.visited[0]) != fmt.Sprint(want) {
			t.Errorf("peer %s saw visited %v, want [%v]", p.name, p.visited, want)
		}
		for i, v := range p.raw {
			if fmt.Sprint(v) != fmt.Sprint(p.visited[i]) {
				t.Errorf("peer %s: visited list changed after the call, %v -> %v", p.name, p.visited[i], v)
			}
		}
		p.mu.Unlock()
		want = append(want, p.name)
	}
}

// TestSerialVisitedLaunchOrder pins the serial walk's visited rule: a peer
// tried after a failed one sees every peer tried before it.
func TestSerialVisitedLaunchOrder(t *testing.T) {
	p1 := &fakePeer{name: "pm-1"}
	p2 := &fakePeer{name: "pm-2"}
	p3 := &fakePeer{name: "pm-3", grant: true}
	m := fanoutManager(t, 1, 0, nil, p1, p2, p3)

	if _, err := m.Forward(basicQuery(t, "punch.rsrc.arch = sun"), 4, []string{"pm-origin"}); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	for _, tc := range []struct {
		peer *fakePeer
		want string
	}{
		{p1, "[[pm-origin pm-home]]"},
		{p2, "[[pm-origin pm-home pm-1]]"},
		{p3, "[[pm-origin pm-home pm-1 pm-2]]"},
	} {
		if got := fmt.Sprint(tc.peer.visited); got != tc.want {
			t.Errorf("peer %s saw visited %s, want %s", tc.peer.name, got, tc.want)
		}
	}
}

// TestFanoutVisitedCarriesLaunched: a branch that replaces a failed one
// carries every peer launched before it, including the one still in
// flight, so no downstream manager sends the query back to either.
func TestFanoutVisitedCarriesLaunched(t *testing.T) {
	fail := &fakePeer{name: "pm-fail"}
	slow := &fakePeer{name: "pm-slow", delay: 30 * time.Millisecond}
	good := &fakePeer{name: "pm-good", grant: true}
	m := fanoutManager(t, 2, 0, nil, fail, slow, good)

	lease, err := m.Forward(basicQuery(t, "punch.rsrc.arch = sun"), 4, []string{"pm-origin"})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-good" {
		t.Errorf("winner = %q, want the replacement branch's peer", lease.Machine)
	}
	good.mu.Lock()
	defer good.mu.Unlock()
	if got, want := fmt.Sprint(good.visited), "[[pm-origin pm-home pm-fail pm-slow]]"; got != want {
		t.Errorf("replacement branch carried visited %s, want %s", got, want)
	}
}

// TestFanoutCycleTerminates peers three empty managers into a full mesh
// with fanout enabled: the shared-nothing visited copies must still
// terminate the walk, concurrently, before the TTL does.
func TestFanoutCycleTerminates(t *testing.T) {
	dirs := []*directory.Service{directory.New(), directory.New(), directory.New()}
	ms := make([]*Manager, 3)
	for i := range ms {
		m, err := New(Config{Name: fmt.Sprintf("pm-%d", i), Dir: dirs[i], Fanout: 2})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for i := range ms {
		for j := range ms {
			if i != j {
				dirs[i].AddPeer(ms[j])
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := ms[0].Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("empty mesh resolution should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fan-out delegation cycle did not terminate")
	}
}

// TestFanoutDelegatedResolveSucceeds: a full-mesh fan-out grid where only
// one manager owns matching machines still resolves, whichever manager
// the query enters at.
func TestFanoutDelegatedResolveSucceeds(t *testing.T) {
	db := fleetDB(t, 8)
	dirs := []*directory.Service{directory.New(), directory.New(), directory.New()}
	f := &LocalFactory{DB: db}
	defer f.CloseAll()
	ms := make([]*Manager, 3)
	for i := range ms {
		cfg := Config{Name: fmt.Sprintf("pm-%d", i), Dir: dirs[i], Fanout: 2, HedgeDelay: time.Millisecond}
		if i == 2 {
			cfg.Factory = f // only the last manager has capacity
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for i := range ms {
		for j := range ms {
			if i != j {
				dirs[i].AddPeer(ms[j])
			}
		}
	}
	lease, err := ms[0].Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve across mesh: %v", err)
	}
	if lease.Machine == "" {
		t.Error("empty lease")
	}
}

// TestFanoutFirstWinStress races many rounds under -race and proves the
// global no-leak invariant: every granted lease is either the single
// winner its round kept or was released back to its peer.
func TestFanoutFirstWinStress(t *testing.T) {
	const rounds = 40
	peers := make([]directory.Forwarder, 5)
	fakes := make([]*fakePeer, 5)
	for i := range peers {
		fakes[i] = &fakePeer{name: fmt.Sprintf("pm-%d", i), grant: true,
			delay: time.Duration(i%3) * time.Millisecond}
		peers[i] = fakes[i]
	}
	stats := metrics.NewFederationStats()
	m := fanoutManager(t, 3, 0, stats, peers...)

	var wg sync.WaitGroup
	wins := make(chan *pool.Lease, rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			wins <- lease
		}()
	}
	wg.Wait()
	close(wins)
	kept := 0
	for range wins {
		kept++
	}
	if kept != rounds {
		t.Fatalf("kept %d leases, want %d", kept, rounds)
	}
	// Wait for the reapers to settle, then check conservation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		granted, released := 0, 0
		for _, p := range fakes {
			g, r := p.counts()
			granted += g
			released += r
		}
		if granted-released == rounds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease conservation violated: granted=%d released=%d kept=%d",
				granted, released, kept)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
