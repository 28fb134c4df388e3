package journal

import (
	"context"
	"sync"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// svcSource adapts core.Service's paging select to a SnapshotSource: the
// clone path the daemon's view source replaced, kept as its oracle.
func svcSource(svc *core.Service) SnapshotSource {
	return func(limit, offset int) ([]*registry.Machine, int, error) {
		return svc.SelectMachines("", limit, offset)
	}
}

// heartbeat tracks one holder's renewal loop across the crash.
type heartbeat struct {
	mu       sync.Mutex
	errs     []time.Time
	okAfter  int // successful renews after the recovery timestamp
	recovery time.Time
}

func (h *heartbeat) record(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.errs = append(h.errs, time.Now())
		return
	}
	if !h.recovery.IsZero() && time.Now().After(h.recovery) {
		h.okAfter++
	}
}

func (h *heartbeat) markRecovered(at time.Time) {
	h.mu.Lock()
	h.recovery = at
	h.mu.Unlock()
}

func (h *heartbeat) report() (errs int, okAfter int, first time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) > 0 {
		first = h.errs[0]
	}
	return len(h.errs), h.okAfter, first
}

// TestKillAndRestartUnderLoad is the durability acceptance test: a
// daemon with live lease holders heartbeating through it is SIGKILLed
// (simulated via Journal.Crash — the user-space buffer is dropped), a
// fresh process replays the journal, probes the holders, and rebinds the
// same address. Live holders must lose nothing: their renewals resume,
// their releases succeed; holders that died with the daemon must have
// their leases reaped so the machines return to circulation.
func TestKillAndRestartUnderLoad(t *testing.T) {
	const (
		liveN = 4
		deadN = 3
	)
	dir := t.TempDir()
	prof := netsim.Local()

	// --- first life ---
	jnl1, st, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Fatalf("fresh journal replayed %+v", st)
	}
	db1 := testFleet(t, 32)
	svc1, err := core.New(core.Options{DB: db1, LeaseTTL: time.Minute, LeaseLog: jnl1})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := core.ServeOpts(svc1, "127.0.0.1:0", prof, wire.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl1.Attach(db1, ViewSource(db1, nil), 0); err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	type holder struct {
		c  *core.Client
		g  *core.Grant
		hb *heartbeat
	}
	var live, dead []*holder
	for i := 0; i < liveN+deadN; i++ {
		c, err := core.Dial(addr, prof)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		g, err := c.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatalf("holder %d: %v", i, err)
		}
		h := &holder{c: c, g: g}
		if i < liveN {
			h.hb = &heartbeat{}
			live = append(live, h)
		} else {
			dead = append(dead, h)
		}
	}
	deadIDs := map[string]bool{}
	deadMachines := map[string]bool{}
	for _, h := range dead {
		deadIDs[h.g.Lease.ID] = true
		deadMachines[h.g.Lease.Machine] = true
	}

	// Live holders heartbeat continuously, right through the crash.
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	for _, h := range live {
		hbWG.Add(1)
		go func(h *holder) {
			defer hbWG.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-tick.C:
					h.hb.record(h.c.Renew(h.g))
				}
			}
		}(h)
	}

	// Let a few clean heartbeats land, then kill the daemon.
	time.Sleep(200 * time.Millisecond)
	for _, h := range live {
		if n, _, first := h.hb.report(); n != 0 {
			t.Fatalf("heartbeat errored before the crash (first at %v)", first)
		}
	}
	if err := jnl1.Flush(); err != nil {
		t.Fatal(err)
	}
	jnl1.Crash()
	srv1.Close()
	svc1.Close() // the old process's teardown; its releases are NOT journaled

	// --- second life ---
	jnl2, st2, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if got := len(st2.Leases); got != liveN+deadN {
		t.Fatalf("replayed %d leases, want %d", got, liveN+deadN)
	}
	db2 := registry.NewDB()
	if err := st2.RestoreDB(db2); err != nil {
		t.Fatal(err)
	}
	svc2, err := core.New(core.Options{DB: db2, LeaseTTL: time.Minute, LeaseLog: jnl2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	recovered := make([]core.RecoveredLease, 0, len(st2.Leases))
	for _, lr := range st2.Leases {
		recovered = append(recovered, core.RecoveredLease{Lease: lr.Lease, Expires: lr.Expires})
	}
	rep, err := svc2.Recover(recovered, core.RecoverOptions{
		Probe: func(ctx context.Context, l *pool.Lease) bool {
			return !deadIDs[l.ID]
		},
		ProbeConcurrency: 2,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != liveN {
		t.Errorf("restored %d live leases, want %d", rep.Restored, liveN)
	}
	if rep.Reaped != deadN {
		t.Errorf("reaped %d dead leases, want %d", rep.Reaped, deadN)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped %d leases; recovery should lose nothing live", rep.Dropped)
	}
	if rep.PoolsAdopted == 0 {
		t.Error("no pools adopted")
	}

	// Rebind the crashed daemon's address (the socket may linger briefly).
	var srv2 *core.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv2, err = core.ServeOpts(svc2, addr, prof, wire.ServeOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer srv2.Close()
	if err := jnl2.Attach(db2, ViewSource(db2, nil), 0); err != nil {
		t.Fatal(err)
	}
	recoveredAt := time.Now()
	for _, h := range live {
		h.hb.markRecovered(recoveredAt)
	}

	// Heartbeats must pass clean again without the holders doing anything.
	settle := time.Now().Add(5 * time.Second)
	for _, h := range live {
		for {
			if _, ok, _ := h.hb.report(); ok >= 2 {
				break
			}
			if time.Now().After(settle) {
				t.Fatalf("heartbeat for %s never recovered", h.g.Lease.ID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	close(stopHB)
	hbWG.Wait()

	// Client errors are limited to the reconnect window: none before the
	// crash (checked above), none after recovery settled.
	for _, h := range live {
		h.hb.mu.Lock()
		for _, at := range h.hb.errs {
			if at.After(recoveredAt.Add(500 * time.Millisecond)) {
				t.Errorf("holder %s: renew error at %v, %v after recovery",
					h.g.Lease.ID, at, at.Sub(recoveredAt))
			}
		}
		h.hb.mu.Unlock()
	}

	// A final explicit renew and release per live holder: the lease ids,
	// access keys and pool routes from before the crash must all still
	// resolve; the missing shadow account is tolerated exactly once.
	for _, h := range live {
		if err := h.c.Renew(h.g); err != nil {
			t.Errorf("post-recovery renew %s: %v", h.g.Lease.ID, err)
		}
		if err := h.c.Release(h.g); err != nil {
			t.Errorf("post-recovery release %s: %v", h.g.Lease.ID, err)
		}
	}

	// The dead holders' machines went back into circulation at recovery.
	for name := range deadMachines {
		m, err := db2.Get(name)
		if err != nil {
			t.Fatalf("dead holder machine %s: %v", name, err)
		}
		if m.TakenBy != "" {
			t.Errorf("machine %s still held by %s after its holder was reaped", name, m.TakenBy)
		}
	}

	// And capacity beyond the adopted pool's members is allocatable: the
	// adopted instance holds only the liveN surviving-lease machines, so
	// a (liveN+1)th concurrent grant can only come from machines recovery
	// returned to circulation.
	var regrants []*core.Grant
	for i := 0; i < liveN+1; i++ {
		g, err := svc2.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatalf("regrant %d after recovery: %v", i, err)
		}
		regrants = append(regrants, g)
	}
	for _, g := range regrants {
		if err := svc2.Release(g); err != nil {
			t.Errorf("release regrant: %v", err)
		}
	}
}
